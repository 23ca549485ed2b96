package repro

import java.security.MessageDigest

/** Hex SHA-256 of a string's UTF-8 bytes: how tests pin an emitted script. */
object Sha256 {
  def apply(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes("UTF-8")).map(b => f"${b & 0xff}%02x").mkString
}

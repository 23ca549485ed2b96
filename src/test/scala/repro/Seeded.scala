package repro

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.Assertions.assert

/** ScalaCheck sampling with a fixed seed (deterministic, offline-friendly —
  * the scalatestplus bridge artifact is not available in this image).
  */
object Seeded {

  /** Draw `n` samples from `gen` deterministically and check each. */
  def forAll[A](gen: Gen[A], n: Int = 200)(f: A => Unit): Unit = {
    val params = Gen.Parameters.default
    var seed = Seed(42L)
    var drawn = 0
    var attempts = 0
    while (drawn < n && attempts < n * 20) {
      gen.apply(params, seed).foreach { a => f(a); drawn += 1 }
      seed = seed.next
      attempts += 1
    }
    assert(drawn > n / 2, s"generator too sparse: $drawn/$n")
  }
}

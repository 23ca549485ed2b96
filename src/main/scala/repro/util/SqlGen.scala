package repro.util

/** Helpers for generating the SQL text Cocoon emits.
  *
  * Cocoon's output artifact is a set of well-commented SQL queries (paper
  * §2.2, Figure 5). Every cleaning module builds map-lookup / `CASE WHEN` /
  * `TRY_CAST` expressions as strings; this object centralises quoting so
  * generated SQL is injection-safe, and [[SqlGen.Dialect]] holds what Spark
  * SQL and DuckDB (the correctness oracle) spell differently.
  */
object SqlGen {

  /** Quote a string literal for SQL (single quotes doubled). */
  def lit(s: String): String =
    if (s == null) "NULL" else "'" + s.replace("'", "''") + "'"

  /** Spark-style identifier quoting: backticks, embedded backticks doubled. */
  def ident(name: String): String =
    "`" + name.replace("`", "``") + "`"

  /** DuckDB-style identifier quoting (for oracle cross-checks). */
  def identAnsi(name: String): String =
    "\"" + name.replace("\"", "\"\"") + "\""

  /** How one engine spells identifiers and a lookup in a literal map. */
  sealed abstract class Dialect(val ident: String => String) {

    /** A literal map of rendered keys to rendered values. */
    def map(entries: Seq[(String, String)]): String

    /** The value `map` holds for `key`; NULL when it holds none or `key` is NULL. */
    def lookup(map: String, key: String): String
  }

  object Dialect {

    /** Spark SQL: `element_at(map('k', 'v', …), key)`. */
    case object Spark extends Dialect(SqlGen.ident) {
      def map(entries: Seq[(String, String)]): String =
        entries.flatMap { case (k, v) => Seq(k, v) }.mkString("map(", ", ", ")")
      def lookup(map: String, key: String): String = s"element_at($map, $key)"
    }

    /** DuckDB 1.0, whose `element_at` on a MAP returns a list of at most one
      * value: `element_at(MAP {'k': 'v', …}, key)[1]`.
      */
    case object DuckDb extends Dialect(SqlGen.identAnsi) {
      def map(entries: Seq[(String, String)]): String =
        entries.map { case (k, v) => s"$k: $v" }.mkString("MAP {", ", ", "}")
      def lookup(map: String, key: String): String = s"element_at($map, $key)[1]"
    }
  }

  /** `COALESCE(lookup(map('bad', 'good', …), col), col)`: each value of `col`
    * found in `mapping` becomes its target, every other value (NULL too)
    * stays. The map is one literal, so the expression's generated code does
    * not grow with the number of entries. Keys must be distinct and no key or
    * target NULL. Returns the bare column when the mapping is empty.
    */
  def mapLookup(col: String, mapping: Seq[(String, String)], d: Dialect): String =
    if (mapping.isEmpty) d.ident(col)
    else {
      val map = d.map(mapping.map { case (bad, good) => lit(bad) -> lit(good) })
      s"COALESCE(${d.lookup(map, d.ident(col))}, ${d.ident(col)})"
    }

  /** Build `CASE WHEN col IN (...) THEN NULL ELSE col END` for DMV cleaning. */
  def caseWhenNull(col: String, bad: Seq[String], d: Dialect): String =
    if (bad.isEmpty) d.ident(col)
    else s"CASE WHEN ${d.ident(col)} IN (${bad.map(lit).mkString(", ")}) THEN NULL ELSE ${d.ident(col)} END"

  /** Threshold clamp used by numeric-outlier cleaning (§2.1.5): values
    * outside [lo, hi] are nulled (the paper thresholds via CASE WHEN).
    */
  def caseWhenRange(col: String, lo: Option[Double], hi: Option[Double], d: Dialect): String = {
    // TRY_CAST: tolerant of residual non-numeric strings on both Spark
    // (ANSI mode) and DuckDB.
    val conds = lo.map(v => s"TRY_CAST(${d.ident(col)} AS DOUBLE) < $v").toSeq ++
      hi.map(v => s"TRY_CAST(${d.ident(col)} AS DOUBLE) > $v").toSeq
    if (conds.isEmpty) d.ident(col)
    else s"CASE WHEN ${conds.mkString(" OR ")} THEN NULL ELSE ${d.ident(col)} END"
  }

  /** One-line SQL comment carrying the LLM reasoning (Figure 5 style). */
  def comment(text: String): String =
    "-- " + text.replace("\n", " ").replace("\r", " ")
}

package repro.util

/** Helpers for generating the SQL text Cocoon emits.
  *
  * Cocoon's output artifact is a set of well-commented SQL queries (paper
  * §2.2, Figure 5). Every cleaning module builds `CASE WHEN` / `CAST` /
  * `REGEXP_REPLACE` expressions as strings; this object centralises quoting
  * so generated SQL is injection-safe and portable between Spark SQL (the
  * executor) and DuckDB (the correctness oracle).
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

  /** Build a `CASE WHEN col = 'bad' THEN 'good' ... ELSE col END` expression
    * from a value mapping. Returns the bare column reference if the mapping
    * is empty (no rewrite needed).
    */
  def caseWhenMap(col: String, mapping: Seq[(String, String)], quote: String => String = ident): String = {
    if (mapping.isEmpty) quote(col)
    else {
      val whens = mapping
        .map { case (bad, good) => s"WHEN ${quote(col)} = ${lit(bad)} THEN ${lit(good)}" }
        .mkString(" ")
      s"CASE $whens ELSE ${quote(col)} END"
    }
  }

  /** Build `CASE WHEN col IN (...) THEN NULL ELSE col END` for DMV cleaning. */
  def caseWhenNull(col: String, bad: Seq[String], quote: String => String = ident): String =
    if (bad.isEmpty) quote(col)
    else s"CASE WHEN ${quote(col)} IN (${bad.map(lit).mkString(", ")}) THEN NULL ELSE ${quote(col)} END"

  /** Threshold clamp used by numeric-outlier cleaning (§2.1.5): values
    * outside [lo, hi] are nulled (the paper thresholds via CASE WHEN).
    */
  def caseWhenRange(col: String, lo: Option[Double], hi: Option[Double], quote: String => String = ident): String = {
    // TRY_CAST: tolerant of residual non-numeric strings on both Spark
    // (ANSI mode) and DuckDB.
    val conds = lo.map(v => s"TRY_CAST(${quote(col)} AS DOUBLE) < $v").toSeq ++
      hi.map(v => s"TRY_CAST(${quote(col)} AS DOUBLE) > $v").toSeq
    if (conds.isEmpty) quote(col)
    else s"CASE WHEN ${conds.mkString(" OR ")} THEN NULL ELSE ${quote(col)} END"
  }

  /** One-line SQL comment carrying the LLM reasoning (Figure 5 style). */
  def comment(text: String): String =
    "-- " + text.replace("\n", " ").replace("\r", " ")
}

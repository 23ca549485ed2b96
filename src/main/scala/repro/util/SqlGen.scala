package repro.util

/** Helpers for generating the SQL text Cocoon emits.
  *
  * Cocoon's output artifact is a set of well-commented SQL queries (paper
  * §2.2, Figure 5). `CleaningStep.renderExpr` renders each rewrite beside
  * the Catalyst column it is applied as; this object centralises quoting so
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

  /** One-line SQL comment carrying the LLM reasoning (Figure 5 style). */
  def comment(text: String): String =
    "-- " + text.replace("\n", " ").replace("\r", " ")
}

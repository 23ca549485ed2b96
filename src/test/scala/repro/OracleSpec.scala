package repro

import org.apache.spark.sql.functions._

/** The DuckDB oracle accepts a Spark result equal to its own and rejects one
  * that differs.
  */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  private def customer =
    Seq((1L, "BUILDING"), (2L, "MACHINERY"), (3L, "BUILDING"), (4L, null)).toDF("c_custkey", "c_mktsegment")

  private val sql = "SELECT c_mktsegment, count(*) AS n FROM customer GROUP BY c_mktsegment"

  test("oracle agrees with Spark on a grouped aggregate") {
    val cust = customer
    Oracle.assertEquivalent(cust.groupBy("c_mktsegment").agg(count(lit(1)).as("n")), sql, "customer" -> cust)
  }

  test("oracle catches a wrong result") {
    val cust = customer
    val wrong = cust.groupBy("c_mktsegment").agg((count(lit(1)) + 1).as("n"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, sql, "customer" -> cust)
    }
  }
}

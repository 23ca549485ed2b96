package repro.jobs

import org.apache.spark.sql.SparkSession

/** The session each job runs in: the master `SPARK_MASTER` names (default
  * `local[*]`) and 16 shuffle partitions.
  */
object JobSession {
  def apply(appName: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", "16")
      .getOrCreate()
}

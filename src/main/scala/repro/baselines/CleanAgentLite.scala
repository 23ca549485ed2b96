package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.datasets.BenchDataset
import repro.eval.{CleaningSystem, LocalTable}
import repro.llm.Knowledge

/** Reimplementation of CleanAgent's mechanism [Qi & Wang 2024]: an LLM-agent
  * wrapper around type-specific *standardisation* functions (email, phone,
  * date). It recognises columns of a standard semantic type and rewrites the
  * whole column into its own canonical format — which is exactly why it
  * scores ≈0 on repair benchmarks: the benchmarks' ground truth keeps the
  * dataset's native format, so standardising changes correct cells without
  * fixing erroneous ones. Files >2MB are truncated to the first 1000 rows
  * (the paper's Movies footnote).
  */
final class CleanAgentLite extends CleaningSystem {

  override def name: String = "CleanAgent"

  private val SampleThreshold = 5000
  private val SampleSize      = 1000

  private val phonePat = """^(\d{3})-(\d{3})-(\d{4})$""".r

  override def clean(spark: SparkSession, ds: BenchDataset): DataFrame = {
    val t = LocalTable.collect(ds)
    val limit = if (t.n > SampleThreshold) SampleSize else t.n

    for (c <- t.columns) {
      val values = (0 until limit).flatMap(r => Option(t.value(r, c)))
      if (values.nonEmpty) {
        val dateShare  = values.count(v => Knowledge.DateFmt.formatOf(v).isDefined).toDouble / values.size
        val phoneShare = values.count(v => phonePat.findFirstIn(v).isDefined).toDouble / values.size
        if (dateShare >= 0.8) {
          // Standardise dates to ISO-8601, CleanAgent's canonical format.
          for (r <- 0 until limit)
            Option(t.value(r, c)).flatMap(Knowledge.DateFmt.render(_, "iso")).foreach(t.set(r, c, _))
        } else if (phoneShare >= 0.8) {
          // Standardise phones to "(XXX) XXX-XXXX".
          for (r <- 0 until limit) Option(t.value(r, c)).foreach {
            case phonePat(a, b, d) => t.set(r, c, s"($a) $b-$d")
            case _                 => ()
          }
        }
      }
    }
    t.toDf(spark, ds.keyCol)
  }
}

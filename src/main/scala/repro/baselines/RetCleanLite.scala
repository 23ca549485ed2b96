package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.datasets.BenchDataset
import repro.eval.{CleaningSystem, LocalTable}
import repro.llm.Knowledge

/** Reimplementation of RetClean's mechanism [Ahmad et al. 2023] in the
  * paper's evaluation setting: its retrieval component has no data lake to
  * retrieve from ("we do not have any to provide"), leaving only the
  * foundation-model value fixer. That fixer repairs obvious word typos from
  * world knowledge alone — no table statistics — which makes it effective
  * exactly where errors are single-edit corruptions of common words (Rayyan
  * titles) and inert elsewhere. Without frequency context it is also
  * over-eager: any unknown word within edit distance 2 of a vocabulary word
  * gets "fixed", which is what caps its precision.
  */
final class RetCleanLite extends CleaningSystem {

  override def name: String = "RetClean"

  private val MaxDistance = 2

  /** Fix one token if it is an unknown word near a known one. */
  private def fixToken(tok: String): Option[String] = {
    val lower = tok.toLowerCase
    if (tok.length < 5 || !tok.forall(_.isLetter) || Knowledge.dictionary.contains(lower)) None
    else
      Knowledge.dictCandidates(lower, MaxDistance).headOption.map { case (w, _) =>
        if (tok.head.isUpper) w.capitalize else w
      }
  }

  override def clean(spark: SparkSession, ds: BenchDataset): DataFrame = {
    val t = LocalTable.collect(ds)
    for (c <- t.columns; r <- 0 until t.n) {
      val v = t.value(r, c)
      if (v != null && v.exists(_.isLetter)) {
        val toks = v.split(" ", -1)
        var changed = false
        val fixed = toks.map { tok =>
          fixToken(tok) match {
            case Some(w) => changed = true; w
            case None    => tok
          }
        }
        if (changed) t.set(r, c, fixed.mkString(" "))
      }
    }
    t.toDf(spark, ds.keyCol)
  }
}

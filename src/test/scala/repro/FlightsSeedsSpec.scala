package repro

import repro.bench.PaperGrid
import repro.core.{CocoonConfig, CocoonPipeline}
import repro.datasets.Flights
import repro.eval.Metrics
import repro.llm.SimulatedLLM

/** Cocoon on Flights at `perfbench`'s workload seeds 1–10, which reach the
  * generator as seed + 1. Flights' FD step repairs four columns keyed on one
  * lhs column with 340–400 arms; rendered as `CASE` arms, its generated
  * method outgrew the JVM's 64 KB limit at half of these seeds and Spark ran
  * it interpreted. At every seed the run, the first read of its output with
  * the scoring, and the emitted script over the input compile under
  * whole-stage codegen, the script gives the rows of `cleaned`, and the
  * Table-1 cells are pinned.
  */
class FlightsSeedsSpec extends SparkSpec {

  /** Table-1 (changed, correct, errors) per workload seed. */
  private val pinned: Seq[(Long, PaperGrid.Cells)] = Seq(
    1L  -> (482L, 393L, 1121L),
    2L  -> (522L, 419L, 1201L),
    3L  -> (520L, 418L, 1237L),
    4L  -> (528L, 430L, 1209L),
    5L  -> (504L, 405L, 1180L),
    6L  -> (464L, 385L, 1182L),
    7L  -> (519L, 416L, 1245L),
    8L  -> (506L, 402L, 1265L),
    9L  -> (532L, 427L, 1182L),
    10L -> (554L, 434L, 1240L),
  )

  for ((seed, cells) <- pinned)
    test(s"Flights at workload seed $seed compiles under whole-stage codegen and its cells are pinned") {
      val ds = Flights.generate(spark, seed + 1)
      val ((result, got), runFallbacks) = CodegenFallbacks.counting {
        val res = CocoonPipeline.run(spark, ds.dirty, new SimulatedLLM(), CocoonConfig(keyCol = ds.keyCol, tableDesc = ds.name))
        val out = res.cleaned.cache()
        try (res, PaperGrid.cells(Metrics.score(ds, "Cocoon", out, Metrics.table1Excluded)))
        finally out.unpersist()
      }
      assert(runFallbacks == 0, s"seed $seed: whole-stage codegen fell back $runFallbacks times in the run, read and scoring")
      ScriptCheck.onSpark(result, ds.dirty, result.cleaned, s"seed $seed")
      assert(got == cells, s"seed $seed")
    }
}

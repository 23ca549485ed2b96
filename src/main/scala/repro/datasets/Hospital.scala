package repro.datasets

import org.apache.spark.sql.SparkSession
import scala.util.Random
import BenchDataset.TableBuilder
import ErrorInjector._

/** Synthetic stand-in for the Hospital benchmark [Rekatsinas et al. 2017].
  *
  * 1000 rows = 50 providers × 20 measures, with the paper's error mix
  * (Table 2): 'x'-substitution typos (213), FD violations (331), three
  * boolean columns counted whole as column-type errors (3000), and DMV
  * tokens (227). Typos are concentrated in FD-lhs/identifier columns
  * (provider_id, measure_code) that only semantic (frequency + edit
  * distance) repair can fix, plus FD-rhs columns that context repair can
  * also reach — reproducing the Cocoon-vs-Baran recall gap.
  */
object Hospital {

  private val cities = IndexedSeq(
    ("Birmingham", "AL", "Jefferson"), ("Dothan", "AL", "Houston"),
    ("Sheffield", "AL", "Colbert"), ("Gadsden", "AL", "Etowah"),
    ("Boaz", "AL", "Marshall"), ("Florence", "AL", "Lauderdale"),
    ("Opp", "AL", "Covington"), ("Luverne", "AL", "Crenshaw"),
    ("Anchorage", "AK", "Anchorage"), ("Phoenix", "AZ", "Maricopa"),
    ("Tucson", "AZ", "Pima"), ("Little Rock", "AR", "Pulaski"),
    ("Sacramento", "CA", "Sacramento"), ("Fresno", "CA", "Fresno"),
    ("Denver", "CO", "Denver"), ("Hartford", "CT", "Hartford"),
    ("Dover", "DE", "Kent"), ("Tampa", "FL", "Hillsborough"),
    ("Atlanta", "GA", "Fulton"), ("Boise", "ID", "Ada"),
    ("Chicago", "IL", "Cook"), ("Peoria", "IL", "Peoria"),
    ("Wichita", "KS", "Sedgwick"), ("Louisville", "KY", "Jefferson"),
    ("Portland", "ME", "Cumberland"), ("Boston", "MA", "Suffolk"),
    ("Detroit", "MI", "Wayne"), ("Duluth", "MN", "Saint Louis"),
    ("Jackson", "MS", "Hinds"), ("Billings", "MT", "Yellowstone"),
    ("Omaha", "NE", "Douglas"), ("Reno", "NV", "Washoe"),
    ("Concord", "NH", "Merrimack"), ("Trenton", "NJ", "Mercer"),
    ("Albany", "NY", "Albany"), ("Raleigh", "NC", "Wake"),
    ("Fargo", "ND", "Cass"), ("Columbus", "OH", "Franklin"),
    ("Tulsa", "OK", "Tulsa"), ("Salem", "OR", "Marion"),
  )

  private val kinds    = IndexedSeq("Medical", "General", "Regional", "Community", "Memorial")
  private val suffixes = IndexedSeq("Center", "Hospital")

  private val conditions = IndexedSeq("Heart Attack", "Pneumonia", "Surgical Infection Prevention", "Heart Failure")
  private val measureNames = IndexedSeq(
    "aspirin prescribed at discharge", "aspirin at arrival",
    "beta blocker at discharge", "fibrinolytic within 30 minutes", "pci within 90 minutes",
    "pneumococcal vaccination", "blood culture before antibiotic", "smoking cessation advice",
    "initial antibiotic selection", "antibiotic within 6 hours",
    "prophylactic antibiotic within 1 hour", "prophylactic antibiotic selection",
    "antibiotic discontinued 24 hours", "cardiac surgery glucose control", "urinary catheter removal",
    "discharge instructions", "evaluation of lvs function", "ace inhibitor for lvsd",
    "adult smoking cessation", "anticoagulation at discharge",
  )

  val columns: Seq[String] = Seq(
    "provider_id", "hospital_name", "city", "state", "zip", "county", "phone",
    "measure_code", "measure_name", "condition",
    "emergency_service", "teaching_hospital", "critical_access",
    "score", "sample",
  )

  val fdConstraints: Seq[(String, String)] = Seq(
    "provider_id" -> "hospital_name", "provider_id" -> "city", "provider_id" -> "state",
    "provider_id" -> "zip", "provider_id" -> "county", "provider_id" -> "phone",
    "zip" -> "city", "zip" -> "state", "zip" -> "county",
    "measure_code" -> "measure_name", "measure_code" -> "condition",
  )

  /** Counts per error class; asserted by tests against Table 2's row. */
  val typoTarget = 213; val fdTarget = 331; val dmvTarget = 227

  def generate(spark: SparkSession, seed: Long = 42): BenchDataset = {
    val rnd = new Random(seed)
    val nProviders = 50; val nMeasures = 20
    val b = new TableBuilder(columns, nProviders * nMeasures)

    def measureCode(m: Int): String = {
      val prefixes = IndexedSeq("AMI", "PN", "SCIP-INF", "HF")
      s"${prefixes(m / 5)}-${m % 5 + 1}"
    }

    for (p <- 0 until nProviders; m <- 0 until nMeasures) {
      val r = p * nMeasures + m
      val (city, state, county) = cities(p % cities.size)
      b.setBoth(r, "provider_id", (10001 + p * 3).toString)
      b.setBoth(r, "hospital_name", s"$city ${kinds((p / cities.size + p) % kinds.size)} ${suffixes(p % 2)}")
      b.setBoth(r, "city", city)
      b.setBoth(r, "state", state)
      b.setBoth(r, "zip", (36000 + (p % cities.size) * 17).toString)
      b.setBoth(r, "county", county)
      b.setBoth(r, "phone", f"205-${400 + p}%03d-${(1000 + p * 37) % 10000}%04d")
      b.setBoth(r, "measure_code", measureCode(m))
      b.setBoth(r, "measure_name", measureNames(m))
      b.setBoth(r, "condition", conditions(m / 5))
      b.setBoth(r, "score", (55 + (p * 7 + m * 13) % 45).toString)
      b.setBoth(r, "sample", (20 + (p * m) % 480).toString)
      // Boolean columns: dirty "yes"/"no", ground truth the cast "True"/"False"
      // — every cell is a column-type error, as the paper counts them.
      Seq(("emergency_service", p % 3 != 0), ("teaching_hospital", p % 4 == 0), ("critical_access", p % 5 == 0))
        .foreach { case (c, v) =>
          b.setCell(r, c, if (v) "yes" else "no", if (v) "True" else "False", "coltype")
        }
    }

    val domains: Map[String, IndexedSeq[String]] =
      columns.map(c => c -> (0 until b.n).map(r => b.cleanValue(r, c)).distinct.toIndexedSeq).toMap

    // Typos: mostly in identifier/lhs columns (only semantic repair reaches
    // them), some in FD-rhs columns (context repair also reaches them).
    val typoPlan = Seq("provider_id" -> 80, "measure_code" -> 73, "hospital_name" -> 20, "city" -> 20, "measure_name" -> 20)
    for ((col, k) <- typoPlan) {
      val avoid = domains(col).toSet
      b.inject(k, rnd) { r =>
        !b.isLabeled(r, col) &&
          typoX(b.cleanValue(r, col), rnd, avoid).exists(t => b.setCell(r, col, t, b.cleanValue(r, col), "typo"))
      }
    }

    // FD violations: replace an rhs cell with another group's valid value,
    // capped per (group, column) so the group majority stays clear.
    val fdPlan = Seq("city" -> 80, "county" -> 60, "phone" -> 51, "measure_name" -> 80, "condition" -> 60)
    val perGroup = scala.collection.mutable.Map.empty[(String, String), Int].withDefaultValue(0)
    for ((col, k) <- fdPlan) {
      val groupOf: Int => String =
        if (Set("measure_name", "condition")(col)) r => b.cleanValue(r, "measure_code")
        else r => b.cleanValue(r, "provider_id")
      b.inject(k, rnd) { r =>
        val g = (groupOf(r), col)
        val took = !b.isLabeled(r, col) && perGroup(g) < 3 &&
          b.setCell(r, col, otherValue(domains(col), b.cleanValue(r, col), rnd), b.cleanValue(r, col), "fd")
        if (took) perGroup(g) += 1
        took
      }
    }

    // DMV tokens in the numeric columns; ground truth is NULL.
    for ((col, k) <- Seq("score" -> 120, "sample" -> 107))
      b.inject(k, rnd)(r => !b.isLabeled(r, col) && b.setCell(r, col, dmvToken(rnd), null, "dmv"))

    b.build(spark, "hospital", fdConstraints)
  }
}

package repro.datasets

import org.apache.spark.sql.SparkSession
import scala.util.Random
import BenchDataset.TableBuilder
import ErrorInjector._

/** Synthetic stand-in for the Beers benchmark [Mahdavi et al. 2019].
  *
  * The dominant error is the paper's "oz" vs "ounce" unit inconsistency in
  * the `ounces` column — invisible to integrity constraints, trivially
  * fixable by semantic pattern standardisation or a learned "ounce"→"oz"
  * transformation. A handful of FD violations corrupt `brewery_name` with
  * other breweries' real names; those trip HoloClean's wrong-side repair via
  * the brewery_name→city/state constraints (its low-precision failure mode
  * on this benchmark), while a name-keyed repair is semantically rejected by
  * the LLM because `brewery_id` is the identifier.
  */
object Beers {

  val columns: Seq[String] = Seq(
    "beer_id", "beer_name", "style", "ounces", "abv", "ibu",
    "brewery_id", "brewery_name", "brewery_city", "brewery_state",
  )

  /** Ground-truth constraints handed to HoloClean — including the
    * name-keyed ones that cause its wrong-side repairs.
    */
  val fdConstraints: Seq[(String, String)] = Seq(
    "brewery_id" -> "brewery_name", "brewery_id" -> "brewery_city", "brewery_id" -> "brewery_state",
    "brewery_name" -> "brewery_city", "brewery_name" -> "brewery_state",
  )

  private val styles = IndexedSeq(
    "American IPA", "American Pale Ale", "American Amber Ale", "American Blonde Ale",
    "American Double IPA", "American Porter", "American Stout", "American Brown Ale",
    "Fruit Beer", "Hefeweizen", "American Pilsner", "Saison", "Witbier", "Kolsch",
    "Scotch Ale", "Oatmeal Stout", "Cream Ale", "Vienna Lager", "Marzen", "Gose",
  )
  private val beerWords = IndexedSeq(
    "Hop", "Trail", "River", "Moon", "Sun", "Stone", "Iron", "Golden", "Wild",
    "Bear", "Eagle", "Canyon", "Summit", "Harvest", "Winter", "Summer", "Amber",
    "Copper", "Midnight", "Thunder",
  )
  private val cityStates = IndexedSeq(
    ("Grand Rapids", "MI"), ("Chicago", "IL"), ("Portland", "OR"), ("Denver", "CO"),
    ("San Diego", "CA"), ("Austin", "TX"), ("Seattle", "WA"), ("Boulder", "CO"),
    ("Asheville", "NC"), ("Milwaukee", "WI"), ("Cincinnati", "OH"), ("Tampa", "FL"),
    ("Boston", "MA"), ("Brooklyn", "NY"), ("Minneapolis", "MN"), ("Nashville", "TN"),
  )

  val nRows = 2410
  val nBreweries = 420
  val inconsistencyTarget = 600
  /** "12.0 oz." period-variant cells: semantically the same fix, but a
    * 1-character diff that no generalising substring rule can be learned
    * from — only per-value exact rules. This is the gap between semantic
    * format understanding and Baran's transformation models.
    */
  val dotVariantTarget = 60
  val fdTarget = 40
  val dmvTarget = 180

  def generate(spark: SparkSession, seed: Long = 44): BenchDataset = {
    val rnd = new Random(seed)
    val b = new TableBuilder(columns, nRows)

    val breweryNames = (0 until nBreweries).map { k =>
      s"${beerWords(k % beerWords.size)} ${beerWords((k / beerWords.size + k + 3) % beerWords.size)} Brewing"
    }
    // Weighted can sizes: "12.0 oz" dominant, as in the real data.
    def sizeOf(i: Int): String = {
      val roll = (i * 7919) % 100
      if (roll < 45) "12.0" else if (roll < 70) "16.0" else if (roll < 82) "24.0"
      else if (roll < 92) "8.4" else "32.0"
    }

    for (r <- 0 until nRows) {
      val brewery = r % nBreweries
      val (city, state) = cityStates(brewery % cityStates.size)
      b.setBoth(r, "beer_id", (1000 + r).toString)
      b.setBoth(r, "beer_name", s"${beerWords(r % beerWords.size)} ${beerWords((r / beerWords.size + 7) % beerWords.size)} ${styles(r % styles.size).split(" ").last}")
      b.setBoth(r, "style", styles((r * 13) % styles.size))
      b.setBoth(r, "ounces", s"${sizeOf(r)} oz")
      b.setBoth(r, "abv", f"0.0${4 + r % 6}%s")
      b.setBoth(r, "ibu", (15 + (r * 11) % 85).toString)
      b.setBoth(r, "brewery_id", (500 + brewery).toString)
      b.setBoth(r, "brewery_name", breweryNames(brewery))
      b.setBoth(r, "brewery_city", city)
      b.setBoth(r, "brewery_state", state)
    }

    // Unit inconsistency: "12.0 oz" → "12.0 ounce" / "12.0 ounces".
    b.inject(inconsistencyTarget, rnd) { r =>
      val word = if (rnd.nextBoolean()) "ounce" else "ounces"
      val dirty = b.cleanValue(r, "ounces").replace(" oz", s" $word")
      b.setCell(r, "ounces", dirty, b.cleanValue(r, "ounces"), "inconsistency")
    }

    // Period variant: "12.0 oz" → "12.0 oz.".
    b.inject(dotVariantTarget, rnd) { r =>
      !b.isLabeled(r, "ounces") &&
        b.setCell(r, "ounces", b.cleanValue(r, "ounces") + ".", b.cleanValue(r, "ounces"), "inconsistency")
    }

    // FD violations: brewery_name swapped for another brewery's real name,
    // at most one per brewery so the group majority stays clear.
    val corruptedBreweries = scala.collection.mutable.Set.empty[String]
    b.inject(fdTarget, rnd) { r =>
      val own = b.cleanValue(r, "brewery_id")
      !corruptedBreweries(own) && {
        val donor = otherValue(breweryNames, b.cleanValue(r, "brewery_name"), rnd)
        b.setCell(r, "brewery_name", donor, b.cleanValue(r, "brewery_name"), "fd") && corruptedBreweries.add(own)
      }
    }

    // DMV in ibu.
    b.inject(dmvTarget, rnd)(r => !b.isLabeled(r, "ibu") && b.setCell(r, "ibu", dmvToken(rnd), null, "dmv"))

    b.build(spark, "beers", fdConstraints)
  }
}

package repro.datasets

import org.apache.spark.sql.SparkSession
import scala.util.Random
import BenchDataset.TableBuilder
import ErrorInjector._
import repro.llm.Knowledge

/** Synthetic stand-in for the Rayyan benchmark [Ouzzani et al. 2016].
  *
  * Reproduces the paper's marquee example: `article_language` mixes ISO-style
  * codes ("eng", 46.4% in the original) with full names ("English", 9.5%) —
  * statistically unremarkable, semantically redundant. Plus: single-edit
  * dictionary-word typos in titles ("cofffee"-style, the errors RetClean can
  * fix), two date formats in `created_at`, issn→journal FD violations, DMV
  * pagination, and author strings entered in `pagination` (unfixable).
  * Titles also carry legitimately-unusual tokens exactly 2 edits from a
  * dictionary word — bait that an aggressive distance-2 corrector "fixes"
  * wrongly, which is what caps RetClean's precision here.
  */
object Rayyan {

  val columns: Seq[String] = Seq(
    "article_title", "article_language", "journal_title", "journal_abbreviation",
    "journal_issn", "article_pagination", "created_at", "authors",
  )

  val fdConstraints: Seq[(String, String)] = Seq(
    "journal_issn" -> "journal_title", "journal_issn" -> "journal_abbreviation",
  )

  val nRows = 1000
  val nJournals = 120
  val typoTarget = 380
  val langTarget = 150
  val dateTarget = 120
  val fdTarget = 150
  val dmvTarget = 100
  val misplacementTarget = 80
  val unusualTokenTarget = 250

  // Language distribution over ISO-ish codes (the clean representation).
  private val langs = IndexedSeq(
    ("eng", "English", 55), ("fre", "French", 12), ("ger", "German", 10),
    ("chi", "Chinese", 8), ("spa", "Spanish", 8), ("ita", "Italian", 7),
  )

  // All field names are ≥3 edits from the common-word dictionary (or in it),
  // so a distance-2 dictionary corrector cannot mangle journal titles.
  private val journalFields = IndexedSeq(
    "Cardiology", "Oncology", "Epidemiology", "Neurology", "Immunology",
    "Endocrinology", "Rheumatology", "Dermatology", "Hematology", "Nephrology",
    "Radiology", "Pathology", "Anesthesiology", "Gastroenterology", "Psychiatry",
  )

  private val surnames = IndexedSeq(
    "Smith", "Jones", "Garcia", "Chen", "Patel", "Novak", "Kim", "Brown",
    "Silva", "Muller", "Tanaka", "Rossi", "Dubois", "Kowalski", "Ivanov",
  )

  def generate(spark: SparkSession, seed: Long = 45): BenchDataset = {
    val rnd = new Random(seed)
    val b = new TableBuilder(columns, nRows)
    val dictWords = Knowledge.dictionary.toIndexedSeq.sorted.filter(_.length >= 5)

    def langFor(i: Int): String = {
      val roll = (i * 6271) % 100
      var acc = 0
      langs.collectFirst { case (c, _, w) if { acc += w; roll < acc } => c }.getOrElse("eng")
    }
    val journals = (0 until nJournals).map { j =>
      val field = journalFields(j % journalFields.size)
      val kind  = if (j % 3 == 0) "Journal of" else if (j % 3 == 1) "International Journal of" else "Annals of"
      val title = s"$kind $field"
      val abbr  = "J. " + field.split(" ").map(_.take(4)).mkString(" ")
      val issn  = f"${1000 + j * 37}%04d-${2000 + j * 53}%04d"
      (title + (if (j >= journalFields.size * 3) s" ${j / (journalFields.size * 3) + 1}" else ""), abbr + s" ${j % 9 + 1}", issn)
    }

    for (r <- 0 until nRows) {
      val nWords = 5 + rnd.nextInt(4)
      val title = (0 until nWords)
        .map(_ => dictWords(rnd.nextInt(dictWords.size)))
        .mkString(" ")
      val (jt, ja, issn) = journals(r % nJournals)
      b.setBoth(r, "article_title", title.capitalize)
      b.setBoth(r, "article_language", langFor(r))
      b.setBoth(r, "journal_title", jt)
      b.setBoth(r, "journal_abbreviation", ja)
      b.setBoth(r, "journal_issn", issn)
      b.setBoth(r, "article_pagination", s"${100 + (r * 17) % 800}-${110 + (r * 17) % 800 + rnd.nextInt(20)}")
      b.setBoth(r, "created_at", s"${1 + r % 12}/${1 + (r * 7) % 28}/${2005 + r % 15}")
      b.setBoth(r, "authors", s"${('A' + r % 26).toChar}. ${surnames(r % surnames.size)}; ${('A' + (r * 3) % 26).toChar}. ${surnames((r + 5) % surnames.size)}")
    }

    // Legitimately-unusual tokens (distance exactly 2 from the dictionary):
    // appended to titles, NOT errors. These bait distance-2 overcorrection.
    b.inject(unusualTokenTarget, rnd) { r =>
      val tok = unusualToken(dictWords(rnd.nextInt(dictWords.size)), rnd)
      tok.foreach(t => b.setBoth(r, "article_title", b.cleanValue(r, "article_title") + " " + t))
      tok.isDefined
    }

    // Dictionary typos in titles: replace one eligible word with a 1-edit
    // typo that world knowledge maps back unambiguously.
    b.inject(typoTarget, rnd) { r =>
      !b.isLabeled(r, "article_title") && {
        val words = b.cleanValue(r, "article_title").split(" ")
        val cand = rnd.shuffle(words.indices.toList).find(i => Knowledge.dictionary.contains(words(i).toLowerCase) && words(i).length >= 5)
        cand.exists { i =>
          dictTypo(words(i).toLowerCase, rnd).exists { typo =>
            val dirtyWord = if (words(i).head.isUpper) typo.capitalize else typo
            val dirty = words.updated(i, dirtyWord).mkString(" ")
            b.setCell(r, "article_title", dirty, b.cleanValue(r, "article_title"), "typo")
          }
        }
      }
    }

    // Language inconsistency: code → full capitalized name.
    val fullByCode = langs.map(l => l._1 -> l._2).toMap
    b.inject(langTarget, rnd) { r =>
      val code = b.cleanValue(r, "article_language")
      !b.isLabeled(r, "article_language") &&
        b.setCell(r, "article_language", fullByCode(code), code, "inconsistency")
    }

    // Date format inconsistency: m/d/yyyy → ISO.
    b.inject(dateTarget, rnd) { r =>
      val v = b.cleanValue(r, "created_at")
      Knowledge.DateFmt.render(v, "iso").exists { iso =>
        !b.isLabeled(r, "created_at") && b.setCell(r, "created_at", iso, v, "inconsistency")
      }
    }

    // FD violations: journal_title / journal_abbreviation swapped for another
    // journal's value (at most 2 per issn group of ~8 rows).
    val perGroup = scala.collection.mutable.Map.empty[(String, String), Int].withDefaultValue(0)
    for ((col, k, domIdx) <- Seq(("journal_title", 90, 0), ("journal_abbreviation", 60, 1))) {
      val domain = journals.map(j => if (domIdx == 0) j._1 else j._2).distinct.toIndexedSeq
      b.inject(k, rnd) { r =>
        val g = (b.cleanValue(r, "journal_issn"), col)
        val took = !b.isLabeled(r, col) && perGroup(g) < 2 &&
          b.setCell(r, col, otherValue(domain, b.cleanValue(r, col), rnd), b.cleanValue(r, col), "fd")
        if (took) perGroup(g) += 1
        took
      }
    }

    // DMV tokens, then author strings entered as pagination.
    b.inject(dmvTarget, rnd) { r =>
      !b.isLabeled(r, "article_pagination") && b.setCell(r, "article_pagination", dmvToken(rnd), null, "dmv")
    }
    b.inject(misplacementTarget, rnd) { r =>
      !b.isLabeled(r, "article_pagination") &&
        b.setCell(r, "article_pagination", b.cleanValue(r, "authors"), b.cleanValue(r, "article_pagination"), "misplacement")
    }

    b.build(spark, "rayyan", fdConstraints)
  }
}

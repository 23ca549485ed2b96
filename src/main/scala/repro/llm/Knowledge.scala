package repro.llm

/** Real-world lexical knowledge the simulated LLM reasons from.
  *
  * The paper's Cocoon asks Claude 3.5 questions like "are any of these values
  * typos or inconsistent representations of the same concept?" (Figure 2).
  * This object is the deterministic stand-in for the model's world knowledge:
  * language-name/ISO-code synonymy, US states, units of measure, boolean and
  * disguised-missing-value lexicons, date/duration/rating formats, a common-
  * English dictionary for typo detection, and edit distances. Every semantic
  * judgement in [[SimulatedLLM]] is grounded here, so runs are reproducible.
  */
object Knowledge {

  // ---------------------------------------------------------------- distances

  /** Restricted Damerau–Levenshtein (optimal string alignment): like
    * Levenshtein but adjacent transposition ("hte" → "the") counts as one
    * edit — the common typo model. Only distances up to `maxD` are told
    * apart: a farther pair gives `maxD + 1`, as soon as a row of the
    * alignment holds nothing within `maxD` (a row's least entry never
    * drops in the rows below it). Three rolling rows, the one two back for
    * transpositions.
    */
  def damerauWithin(a: String, b: String, maxD: Int): Int = {
    val m = a.length; val n = b.length
    if (math.abs(m - n) > maxD) return maxD + 1
    var back = new Array[Int](n + 1)
    var prev = Array.tabulate(n + 1)(identity)
    var cur  = new Array[Int](n + 1)
    var i = 1
    while (i <= m) {
      cur(0) = i
      var least = i
      var j = 1
      while (j <= n) {
        val cost = if (a.charAt(i - 1) == b.charAt(j - 1)) 0 else 1
        var d = math.min(math.min(prev(j) + 1, cur(j - 1) + 1), prev(j - 1) + cost)
        if (i > 1 && j > 1 && a.charAt(i - 1) == b.charAt(j - 2) && a.charAt(i - 2) == b.charAt(j - 1))
          d = math.min(d, back(j - 2) + 1)
        cur(j) = d
        least = math.min(least, d)
        j += 1
      }
      if (least > maxD) return maxD + 1
      val t = back; back = prev; prev = cur; cur = t
      i += 1
    }
    math.min(prev(n), maxD + 1)
  }

  // ----------------------------------------------------------------- lexicons

  /** Language full-name → MARC-style 3-letter code (the Rayyan example:
    * "English" and "eng" are redundant representations of one concept).
    */
  val languageCodes: Map[String, String] = Map(
    "english" -> "eng", "french" -> "fre", "german" -> "ger", "chinese" -> "chi",
    "spanish" -> "spa", "italian" -> "ita", "portuguese" -> "por",
    "japanese" -> "jpn", "russian" -> "rus", "dutch" -> "dut", "korean" -> "kor",
    "arabic" -> "ara", "turkish" -> "tur", "polish" -> "pol", "swedish" -> "swe",
    "danish" -> "dan", "norwegian" -> "nor", "finnish" -> "fin",
    "hungarian" -> "hun", "czech" -> "cze", "greek" -> "gre", "hebrew" -> "heb",
  )

  private val languageTokens: Set[String] =
    languageCodes.keySet ++ languageCodes.values

  /** Canonical concept key for a language value, if the value is one. Both
    * "English" and "eng" map to "eng"; unknown strings map to None.
    */
  def languageConcept(v: String): Option[String] = {
    val s = v.trim.toLowerCase
    if (languageCodes.contains(s)) Some(languageCodes(s))
    else if (languageCodes.values.exists(_ == s)) Some(s)
    else None
  }

  /** Does this value look like a language name or code at all? */
  def isLanguageToken(v: String): Boolean = languageTokens.contains(v.trim.toLowerCase)

  /** US state postal codes — all legitimate; never typos of each other. */
  val usStateCodes: Set[String] = Set(
    "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA", "HI", "ID",
    "IL", "IN", "IA", "KS", "KY", "LA", "ME", "MD", "MA", "MI", "MN", "MS",
    "MO", "MT", "NE", "NV", "NH", "NJ", "NM", "NY", "NC", "ND", "OH", "OK",
    "OR", "PA", "RI", "SC", "SD", "TN", "TX", "UT", "VT", "VA", "WA", "WV",
    "WI", "WY", "DC",
  )

  /** Values that are known-valid tokens in some real-world vocabulary; a
    * model with world knowledge never "corrects" these to a more frequent
    * neighbour (e.g. "AK" is not a typo of "AL").
    */
  def isKnownValidToken(v: String): Boolean =
    usStateCodes(v.trim.toUpperCase) || isLanguageToken(v)

  /** Boolean-valued tokens (for semantic column-type suggestion §2.1.4). */
  val booleanTrue: Set[String]  = Set("yes", "y", "true", "t", "1")
  val booleanFalse: Set[String] = Set("no", "n", "false", "f", "0")
  def booleanConcept(v: String): Option[String] = {
    val s = v.trim.toLowerCase
    if (booleanTrue(s)) Some("True") else if (booleanFalse(s)) Some("False") else None
  }

  /** Disguised-missing-value lexicon (§2.1.3): strings that semantically mean
    * NULL. Matched case-insensitively on the trimmed value.
    */
  val dmvTokens: Set[String] = Set(
    "n/a", "na", "n.a.", "null", "none", "missing", "-", "--", "?", "??",
    "unknown", "nil", "empty", "undefined", "not available", "not applicable",
    "no value", "(null)", "(none)", "tbd",
  )
  def isDmv(v: String): Boolean = v != null && dmvTokens.contains(v.trim.toLowerCase)

  /** Common-English dictionary used for context-free typo repair — the
    * knowledge that lets an LLM see "cofffee" is a typo without any frequency
    * statistics. Scoped to research/medical vocabulary (the Rayyan domain);
    * deliberately excludes movie-genre and country proper nouns so the
    * dictionary-only RetClean baseline has nothing to grab onto outside
    * Rayyan, as in the paper.
    */
  val dictionary: Set[String] = Set(
    "a", "the", "of", "in", "and", "for", "with", "on", "to", "from", "by",
    "study", "analysis", "review", "systematic", "randomized", "controlled",
    "trial", "effects", "effect", "treatment", "therapy", "patients", "patient",
    "chronic", "acute", "disease", "diseases", "clinical", "outcomes",
    "outcome", "evaluation", "assessment", "management", "prevention",
    "intervention", "comparison", "efficacy", "safety", "quality", "health",
    "care", "cancer", "diabetes", "hypertension", "asthma", "obesity",
    "infection", "syndrome", "disorder", "cognitive", "behavioral", "surgical",
    "medical", "pediatric", "adult", "elderly", "population", "cohort",
    "longitudinal", "prospective", "retrospective", "observational", "evidence",
    "based", "practice", "guidelines", "protocol", "screening", "diagnosis",
    "prognosis", "mortality", "morbidity", "risk", "factors", "factor",
    "association", "correlation", "impact", "influence", "function",
    "mechanism", "pathway", "expression", "gene", "protein", "cell", "cells",
    "tissue", "blood", "serum", "plasma", "brain", "heart", "lung", "liver",
    "kidney", "bone", "muscle", "skin", "immune", "response", "inflammation",
    "oxidative", "stress", "metabolism", "nutrition", "exercise", "physical",
    "activity", "mental", "depression", "anxiety", "pain", "sleep", "fatigue",
    "recovery", "rehabilitation", "surgery", "drug", "drugs", "dose", "dosage",
    "placebo", "versus", "among", "between", "during", "after", "before",
    "early", "late", "severe", "mild", "moderate", "primary", "secondary",
    "novel", "improved", "reduced", "increased", "associated", "related",
    "coffee", "smoking", "alcohol", "vaccine", "vaccination", "antibiotic",
    "resistance", "stroke", "injury", "women", "men", "children",
  )

  /** Dictionary candidates within Damerau distance `maxD` of a token,
    * nearest-first then alphabetical (deterministic tie-break).
    */
  def dictCandidates(token: String, maxD: Int): Seq[(String, Int)] =
    dictionary.toSeq
      .filter(w => math.abs(w.length - token.length) <= maxD)
      .map(w => (w, damerauWithin(token, w, maxD)))
      .filter { case (w, d) => d > 0 && d <= maxD && w.length >= 3 }
      .sortBy { case (w, d) => (d, w) }

  /** High-confidence dictionary typo repair: the token is not a dictionary
    * word, exactly one dictionary word lies at Damerau distance 1, and the
    * token is long enough that a 1-edit collision is unlikely. This is the
    * conservative judgement Cocoon's prompt elicits ("report them as unusual
    * values" only when clearly strange).
    */
  def confidentTypoFix(token: String): Option[String] = {
    if (token.length < 5 || dictionary.contains(token)) None
    else dictCandidates(token, 1) match {
      case Seq((w, 1)) => Some(w)
      case _           => None
    }
  }

  // ----------------------------------------------------------- format parsing

  /** A value-format family the LLM can recognise, parse to a canonical
    * internal form, and re-render in a target format (§2.1.2 pattern
    * outliers). `formatOf` names which surface format a value uses, so the
    * pipeline can find the dominant format and rewrite the minority.
    */
  trait FormatFamily {
    def name: String
    def formatOf(v: String): Option[String]
    def render(v: String, targetFormat: String): Option[String]
  }

  private val durMin   = """^(\d+)\s*(?:min|mins|minutes)\.?$""".r
  private val durHrMin = """^(\d+)\s*(?:hr|hrs|hour|hours)\.?(?:\s+(\d+)\s*(?:min|mins|minutes)\.?)?$""".r

  /** Durations: "100 min" vs "1 hr 40 min" (the Movies example). Canonical
    * value is total minutes.
    */
  object Duration extends FormatFamily {
    val name = "duration"
    def parseMinutes(v: String): Option[Int] = v.trim.toLowerCase match {
      case durMin(m)        => Some(m.toInt)
      case durHrMin(h, m)   => Some(h.toInt * 60 + Option(m).map(_.toInt).getOrElse(0))
      case _                => None
    }
    def formatOf(v: String): Option[String] = v.trim.toLowerCase match {
      case durMin(_)      => Some("min")
      case durHrMin(_, _) => Some("hr-min")
      case _              => None
    }
    def render(v: String, target: String): Option[String] = parseMinutes(v).map { total =>
      target match {
        case "min" => s"$total min"
        case _     => if (total % 60 == 0) s"${total / 60} hr" else s"${total / 60} hr ${total % 60} min"
      }
    }
  }

  private val dateSlash = """^(\d{1,2})/(\d{1,2})/(\d{4})$""".r
  private val dateIso   = """^(\d{4})-(\d{2})-(\d{2})$""".r

  /** Dates: "1/5/2009" (m/d/yyyy) vs "2009-01-05" (ISO). */
  object DateFmt extends FormatFamily {
    val name = "date"
    def parseYmd(v: String): Option[(Int, Int, Int)] = v.trim match {
      case dateSlash(m, d, y) => Some((y.toInt, m.toInt, d.toInt))
      case dateIso(y, m, d)   => Some((y.toInt, m.toInt, d.toInt))
      case _                  => None
    }
    def formatOf(v: String): Option[String] = v.trim match {
      case dateSlash(_, _, _) => Some("mdy-slash")
      case dateIso(_, _, _)   => Some("iso")
      case _                  => None
    }
    def render(v: String, target: String): Option[String] = parseYmd(v).map { case (y, m, d) =>
      target match {
        case "iso" => f"$y%04d-$m%02d-$d%02d"
        case _     => s"$m/$d/$y"
      }
    }
  }

  private val ratingPlain = """^(\d+(?:\.\d+)?)$""".r
  private val ratingOf10  = """^(\d+(?:\.\d+)?)\s*/\s*10$""".r

  /** Ratings: "7.5" vs "7.5/10". Canonical is the bare number. */
  object Rating extends FormatFamily {
    val name = "rating"
    def formatOf(v: String): Option[String] = v.trim match {
      case ratingPlain(_) => Some("plain")
      case ratingOf10(_)  => Some("of10")
      case _              => None
    }
    def render(v: String, target: String): Option[String] = {
      val num = v.trim match {
        case ratingPlain(n) => Some(n)
        case ratingOf10(n)  => Some(n)
        case _              => None
      }
      num.map(n => if (target == "of10") s"$n/10" else n)
    }
  }

  private val volOz = """^(\d+(?:\.\d+)?)\s*(oz|oz\.|ounce|ounces)$""".r

  /** Fluid volumes: "12.0 oz" vs "12.0 ounce" vs "12.0 oz." (Beers). */
  object Volume extends FormatFamily {
    val name = "volume"
    def formatOf(v: String): Option[String] = v.trim.toLowerCase match {
      case volOz(_, u) =>
        Some(if (u.startsWith("ounce")) "ounce-word" else if (u == "oz.") "oz-dot" else "oz")
      case _ => None
    }
    def render(v: String, target: String): Option[String] = v.trim.toLowerCase match {
      case volOz(n, _) => Some(if (target == "ounce-word") s"$n ounce" else s"$n oz")
      case _           => None
    }
  }

  val formatFamilies: Seq[FormatFamily] = Seq(Duration, DateFmt, Rating, Volume)

  // ------------------------------------------------------------- FD semantics

  /** Column-name pairs an LLM would judge as semantically meaningful
    * single-attribute FDs (§2.1.6: "let LLMs review if these statistically
    * strong functional dependencies are meaningful semantically"). Matching
    * is by lowercase substring on both sides.
    */
  val meaningfulFdNamePairs: Seq[(String, String)] = Seq(
    ("zip", "city"), ("zip", "state"), ("zip", "county"),
    ("provider", "hospital"), ("provider", "city"),
    ("provider", "state"), ("provider", "zip"), ("provider", "county"),
    ("provider", "phone"), ("provider", "address"),
    ("measure_code", "measure_name"), ("measure_code", "condition"),
    ("brewery_id", "brewery_name"), ("brewery_id", "city"), ("brewery_id", "state"),
    ("flight", "sched"), ("flight", "act"), ("flight", "dep"), ("flight", "arr"),
    ("country", "language"), ("issn", "journal"),
  )

  def fdSemanticallyMeaningful(lhs: String, rhs: String): Boolean = {
    val l = lhs.toLowerCase; val r = rhs.toLowerCase
    meaningfulFdNamePairs.exists { case (lk, rk) => l.contains(lk) && r.contains(rk) }
  }

  /** Plausible numeric ranges by column-name keyword (§2.1.5: "review the
    * acceptable range semantically").
    */
  val plausibleRanges: Seq[(String, Double, Double)] = Seq(
    ("age", 0, 125), ("year", 1800, 2100), ("rating", 0, 10), ("score", 0, 100),
    ("percent", 0, 100), ("abv", 0, 0.7), ("ibu", 0, 200), ("month", 1, 12),
    ("day", 1, 31), ("hour", 0, 24), ("minute", 0, 60),
  )

  def plausibleRange(columnName: String): Option[(Double, Double)] = {
    val c = columnName.toLowerCase
    plausibleRanges.collectFirst { case (k, lo, hi) if c.contains(k) => (lo, hi) }
  }
}

package repro.llm

/** Classic Levenshtein edit distance: the reference that
  * [[TypoReference.damerau]] is checked against (it never exceeds it, and equals
  * it when no adjacent transposition helps).
  */
object Levenshtein {

  def distance(a: String, b: String): Int = {
    val m = a.length; val n = b.length
    if (m == 0) return n
    if (n == 0) return m
    val prev = Array.tabulate(n + 1)(identity)
    val cur  = new Array[Int](n + 1)
    var i = 1
    while (i <= m) {
      cur(0) = i
      var j = 1
      while (j <= n) {
        val cost = if (a.charAt(i - 1) == b.charAt(j - 1)) 0 else 1
        cur(j) = math.min(math.min(cur(j - 1) + 1, prev(j) + 1), prev(j - 1) + cost)
        j += 1
      }
      System.arraycopy(cur, 0, prev, 0, n + 1)
      i += 1
    }
    prev(n)
  }
}

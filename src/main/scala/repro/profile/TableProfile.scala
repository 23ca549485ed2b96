package repro.profile

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

import org.apache.spark.sql.{Column, DataFrame, functions => F}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{BoundReference, Cast, EvalMode}
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.types.{DoubleType, StringType, StructField}
import org.apache.spark.unsafe.types.UTF8String
import repro.profile.ColumnProfile.Numbers
import repro.util.SqlGen

/** A value with its occurrence count, from a column's frequency profile. */
final case class ValueCount(value: String, count: Long)

object ValueCount {

  /** Spark's string order: UTF-8 bytes, not UTF-16 code units. UTF-8 bytes
    * order as code points do, so the code points are compared, with nothing
    * encoded.
    */
  private val sparkOrder: Ordering[String] = (a, b) => {
    var (i, j, d) = (0, 0, 0)
    while (d == 0 && i < a.length && j < b.length) {
      val x = a.codePointAt(i)
      val y = b.codePointAt(j)
      d = Integer.compare(encoded(x), encoded(y))
      i += Character.charCount(x)
      j += Character.charCount(y)
    }
    if (d != 0) d else Integer.compare(a.length - i, b.length - j)
  }

  /** A code point as Spark's UTF-8 encoding orders it: a lone surrogate is encoded as `?`. */
  private def encoded(c: Int): Int = if (c >= Character.MIN_SURROGATE && c <= Character.MAX_SURROGATE) '?' else c

  /** Most frequent first, ties by value in Spark's string order: the order of
    * a column's frequent values, of an FD group's rhs values and of the
    * violating groups an FD score keeps.
    */
  val ranked: Ordering[ValueCount] = (a, b) =>
    if (a.count != b.count) java.lang.Long.compare(b.count, a.count) else sparkOrder.compare(a.value, b.value)
}

/** Profile of a single column (paper §2: "Cocoon leverages traditional
  * statistical methods to profile the tables ... and includes these in the
  * prompt"): the (value, rows) table the profile counted, one entry per
  * distinct value and one under the `null` key when some row is NULL, and
  * the numbers of its rows. Every count is read off that table.
  */
final case class ColumnProfile(
    counts: Map[String, Long],
    minNumeric: Option[Double],
    maxNumeric: Option[Double],
    numericParseRate: Double,
) {
  def rowCount: Long      = counts.values.sum
  def nullCount: Long     = counts.getOrElse(null, 0L)
  def distinctCount: Long = counts.size - (if (counts.contains(null)) 1 else 0)

  /** Distinct values over non-NULL rows, 0 when every row is NULL: as in SQL
    * `UNIQUE`, no two NULLs are equal, so a NULL repeats no value.
    */
  def uniqueRatio: Double = if (rowCount == nullCount) 0.0 else distinctCount.toDouble / (rowCount - nullCount)

  /** Every non-null value in [[ValueCount.ranked]] order, ranked when first
    * read: a column no stage lists, such as the key, is never sorted.
    */
  lazy val frequentValues: Seq[ValueCount] =
    counts.iterator.collect { case (v, n) if v != null => ValueCount(v, n) }.toSeq.sorted(ValueCount.ranked)
}

object ColumnProfile {

  /** The numbers of a column's rows: how many rows have one, and their min
    * and max in `Ordering.Double.TotalOrdering`, the one order the profile
    * takes them in (NaN above every other number, as in Spark's `min` and
    * `max`, and -0.0 below 0.0). With no rows, min is NaN and max -∞: the
    * identities of that order's `min` and `max`.
    */
  final case class Numbers(rows: Long = 0L, min: Double = Double.NaN, max: Double = Double.NegativeInfinity) {
    def add(d: Double, n: Long = 1L): Numbers = this ++ Numbers(n, d, d)
    def ++(o: Numbers): Numbers = Numbers(rows + o.rows, order.min(min, o.min), order.max(max, o.max))
  }

  private val order = Ordering.Double.TotalOrdering

  /** The profile of a column from its merged (value, rows) table, nulls
    * included, and the numbers of its rows: their min, max and parse rate
    * over the non-null rows.
    */
  def of(counts: Map[String, Long], numbers: Numbers): ColumnProfile = {
    val nonNull = counts.values.sum - counts.getOrElse(null, 0L)
    ColumnProfile(
      counts,
      Option.when(numbers.rows > 0)(numbers.min),
      Option.when(numbers.rows > 0)(numbers.max),
      if (nonNull == 0) 0.0 else numbers.rows.toDouble / nonNull,
    )
  }

  /** The profile of a string column holding `counts` (value, rows), nulls
    * included: equal values merged, values left with no rows dropped, and
    * the numbers taken from each distinct value's Spark
    * `TRY_CAST(value AS DOUBLE)`, once per value, after the merge.
    */
  def ofStrings(counts: Iterable[(String, Long)]): ColumnProfile = {
    val values = counts.groupMapReduce(_._1)(_._2)(_ + _).filter(_._2 > 0)
    of(values, values.foldLeft(Numbers()) { case (s, (v, n)) =>
      Option(number.eval(InternalRow(UTF8String.fromString(v)))).fold(s) { case d: Double => s.add(d, n) }
    })
  }

  /** Spark's `TRY_CAST(v AS DOUBLE)` of the string at ordinal 0. */
  private val number = Cast(BoundReference(0, StringType, nullable = true), DoubleType, evalMode = EvalMode.TRY)
}

/** Profile of one table state: its rows, a [[ColumnProfile]] for every
  * column, each keeping its whole (value, rows) table, and the tables it was
  * asked to count: the rows of each combination of some columns' values,
  * NULL cells included, keyed by those columns. A stage reads the prefix of
  * ranked values it needs.
  */
final case class TableProfile(
    rowCount: Long,
    columns: Map[String, ColumnProfile],
    tables: Map[Seq[String], TableProfile.Table] = Map.empty,
) {

  def apply(col: String): ColumnProfile = columns(col)

  /** The `n` most frequent non-null values of `col`. */
  def frequentValues(col: String, n: Int): Seq[ValueCount] = columns(col).frequentValues.take(n)

  /** The rows of each combination of the values of `cols`, in that order,
    * NULL included: one column's counts, or the smallest counted table
    * holding every column of `cols`, summed down to them. `None` when no
    * table holds them all.
    */
  def table(cols: Seq[String]): Option[TableProfile.Table] = cols match {
    case Seq(c) => Some(columns(c).counts.map { case (v, n) => Seq(v) -> n })
    case _ =>
      tables.filter(t => cols.forall(t._1.contains)).minByOption(_._2.size).map { case (held, t) =>
        val at = cols.map(held.indexOf)
        t.groupMapReduce { case (vs, _) => at.map(vs) }(_._2)(_ + _)
      }
  }

  /** The rows of each (`lhs` value, `rhs` value), over the rows where
    * neither is NULL: the pair's [[table]] with its NULL cells left out. A
    * counted table must hold both columns.
    */
  def joint(lhs: String, rhs: String): TableProfile.Joint =
    table(Seq(lhs, rhs))
      .getOrElse(throw new NoSuchElementException(s"the profile counted no pair of $lhs and $rhs"))
      .collect { case (Seq(l, r), n) if l != null && r != null => (l, r) -> n }
}

object TableProfile {

  /** The rows of each combination of some columns' values, NULL included. */
  type Table = Map[Seq[String], Long]

  /** The rows of each (lhs value, rhs value) of a column pair, neither NULL. */
  type Joint = Map[(String, String), Long]

  /** Profile every column, and count a table for each FD target of `pairs`,
    * in one Spark job and one SQL execution. A target's table holds its lhs
    * columns, in pair order, then the target; a table whose columns another
    * table holds is not counted, since [[TableProfile.table]] sums the other
    * down to them. One projection gives each column's value as text and,
    * for a non-string column, its typed `TRY_CAST` to double, NULL where
    * Spark cannot cast the type to double (DATE, BINARY, nested types). Each
    * input partition's task counts its projected rows in place: the rows of
    * each (column, text) and of each combination of a table's texts, NULL
    * cells included, and each typed column's [[ColumnProfile.Numbers]], row
    * by row. The driver sums the partitions' rows and counts and combines
    * their numbers, so it receives each distinct value at most once per
    * partition, and every value stays in the profile. A string column's
    * numbers are taken once per distinct value, by
    * [[ColumnProfile.ofStrings]]; any other column's come from its typed cast
    * ([[ColumnProfile.of]]).
    */
  def of(df: DataFrame, pairs: Seq[(String, String)] = Seq.empty): TableProfile = {
    val fields = df.schema.fields.toSeq
    val wanted = pairs.map(_._2).distinct.map(rhs => pairs.collect { case (l, `rhs`) => l }.distinct :+ rhs)
    val counted = wanted.distinctBy(_.toSet).filterNot(t => wanted.exists(o => o.size > t.size && t.forall(o.contains)))
    val tableAt = counted.map(_.map(df.schema.fieldIndex).toArray).toArray

    // Column i's text at ordinal i, then the typed numbers, column i's at
    // numberAt(i) (-1 for none): TRY_CASTs, which `Cast.canTryCast` admits.
    val typed = fields.indices.filter(i => !isString(fields(i)) && Cast.canTryCast(fields(i).dataType, DoubleType))
    val numberAt = Array.fill(fields.size)(-1)
    for ((i, k) <- typed.zipWithIndex) numberAt(i) = fields.size + k
    val projected = df.select(fields.map(f => column(f.name).cast(StringType)) ++ typed.map(i => column(fields(i).name).try_cast(DoubleType)): _*)

    val qe = projected.queryExecution
    val parts = SQLExecution.withNewExecutionId(qe, Some("profile")) {
      qe.toRdd.mapPartitions(rows => Iterator(countPartition(rows, numberAt, tableAt))).collect().toSeq
    }

    // The (text, rows) every partition counted at `k`; a table's cells are `width` texts each.
    def counts(k: Int): Seq[(String, Long)] = parts.flatMap(p => p.texts(k).iterator.zip(p.rows(k)))
    def cells(k: Int, width: Int): Seq[(Seq[String], Long)] =
      parts.flatMap(p => p.texts(k).grouped(width).map(c => ArraySeq.unsafeWrapArray(c): Seq[String]).zip(p.rows(k)))
    val profiles = fields.zipWithIndex.map { case (f, i) =>
      f.name -> (if (isString(f)) ColumnProfile.ofStrings(counts(i)) else ColumnProfile.of(summed(counts(i)), parts.map(_.numbers(i)).foldLeft(Numbers())(_ ++ _)))
    }
    val tables = counted.indices.map(j => counted(j) -> summed(cells(fields.size + j, counted(j).size)))
    TableProfile(parts.map(_.total).sum, profiles.toMap, tables.toMap)
  }

  /** One partition's counts: its rows; each column's distinct texts, then
    * each table's cells, a cell's texts one after another, with the rows of
    * each; and each column's numbers (empty for a string column). Flat
    * arrays, so a task's result serializes with no object per count.
    */
  private final case class Counts(total: Long, texts: Array[Array[String]], rows: Array[Array[Long]], numbers: Array[Numbers])

  /** The rows of one value. */
  private final class Tally(var rows: Long = 0L)

  /** Count one partition of the projection [[of]] runs: `numberAt(i)` is the
    * ordinal of column i's typed number (-1 for none), and each of `tableAt`
    * the ordinals of a table's texts.
    */
  private def countPartition(rows: Iterator[InternalRow], numberAt: Array[Int], tableAt: Array[Array[Int]]): Counts = {
    val values  = Array.fill(numberAt.length)(mutable.HashMap.empty[UTF8String, Tally])
    val numbers = Array.fill(numberAt.length)(Numbers())
    val tables  = Array.fill(tableAt.length)(mutable.HashMap.empty[ArraySeq[UTF8String], Tally])
    val row     = new Array[UTF8String](numberAt.length)
    var n       = 0L
    for (r <- rows) {
      n += 1
      for (i <- row.indices) {
        row(i) = if (r.isNullAt(i)) null else r.getUTF8String(i)
        tally(values(i), row(i))(copied).rows += 1
        val k = numberAt(i)
        if (k >= 0 && !r.isNullAt(k)) numbers(i) = numbers(i).add(r.getDouble(k))
      }
      for (j <- tableAt.indices)
        tally(tables(j), ArraySeq.unsafeWrapArray(tableAt(j).map(row)))(_.map(copied)).rows += 1
    }
    def text(s: UTF8String): String = if (s == null) null else s.toString
    // A map's keys and values iterate its one hash table in the same order.
    Counts(
      n,
      values.map(_.keysIterator.map(text).toArray) ++ tables.map(_.keysIterator.flatMap(_.map(text)).toArray),
      values.map(_.valuesIterator.map(_.rows).toArray) ++ tables.map(_.valuesIterator.map(_.rows).toArray),
      numbers,
    )
  }

  /** A projected row's string, copied: the row points into a buffer the next row reuses. */
  private def copied(s: UTF8String): UTF8String = if (s == null) null else s.clone()

  /** Every partition's (key, rows), summed per key. */
  private def summed[K](counts: Iterable[(K, Long)]): Map[K, Long] = counts.groupMapReduce(_._1)(_._2)(_ + _)

  /** The tally of `key` in `counts`, added under `copy(key)` if missing. */
  private def tally[K](counts: mutable.HashMap[K, Tally], key: K)(copy: K => K): Tally =
    counts.getOrElse(key, { val t = new Tally; counts(copy(key)) = t; t })

  private def isString(f: StructField): Boolean = f.dataType.isInstanceOf[StringType]

  /** A column by its name, quoted: a name may hold a backtick, a dot or a space. */
  private def column(name: String): Column = F.col(SqlGen.ident(name))
}

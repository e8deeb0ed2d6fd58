package repro.core.phase1

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{IntegerType, StringType, StructField, StructType}
import repro.core.model._
import scala.jdk.CollectionConverters._

/** Inclusive integer interval produced by intervalization. */
final case class Interval(lo: Int, hi: Int) extends Serializable {
  require(lo <= hi, s"empty interval [$lo,$hi]")
  def contains(v: Int): Boolean = v >= lo && v <= hi
  def subsetOf(r: NumRange): Boolean = r.lo <= lo && hi <= r.hi
}

/** One bin: a distinct combination of R1 attribute values after
  * intervalization — categorical attributes keep their value, numeric
  * attributes are reduced to the interval they fall in. Bins are atomic with
  * respect to every CC's R1 condition: a bin either fully satisfies it or
  * fully fails it.
  */
final case class Bin(id: Int, cats: Map[String, String],
                     nums: Map[String, Interval], count: Long) extends Serializable {

  /** Does every tuple of this bin satisfy `cond` (an R1-side condition)? */
  def matchesR1Cond(cond: SelCond): Boolean = cond.preds.forall {
    case CatEq(a, v)   => cats.get(a).contains(v)
    case r: NumRange   => nums.get(r.attr).exists(_.subsetOf(r))
  }
}

/** Intervalization + binning of R1 (Section 4.1).
  *
  * @param intervals per numeric attribute, the ordered interval partition cut
  *                  at every CC endpoint (so bins never straddle a condition)
  * @param bins      the distinct post-intervalization R1 value combinations
  *                  actually present in the data, with their multiplicities
  */
final case class Binning(schema: DbSchema,
                         intervals: Map[String, IndexedSeq[Interval]],
                         bins: IndexedSeq[Bin]) extends Serializable {

  /** Column computing the interval index of a numeric attribute via a
    * Catalyst `when` chain (intervals are few; no UDF needed).
    */
  private def intervalIdxCol(attr: String): Column = {
    val ivls = intervals(attr)
    ivls.indices.foldLeft(lit(-1)) { (acc, i) =>
      when(col(attr) >= ivls(i).lo && col(attr) <= ivls(i).hi, lit(i)).otherwise(acc)
    }
  }

  /** The bin key: the categorical attributes plus one `__ivl_<attr>`
    * interval index per numeric attribute.
    */
  private def keyCols: Seq[String] =
    schema.r1.catAttrs ++ schema.r1.numAttrs.map(a => s"__ivl_$a")

  private def withIntervals(df: DataFrame): DataFrame =
    schema.r1.numAttrs.foldLeft(df)((d, a) => d.withColumn(s"__ivl_$a", intervalIdxCol(a)))

  /** Attach a `__bin` column to an R1-shaped DataFrame (equi-join on the key
    * columns against the small bin-key table); `-1` marks tuples in no bin.
    */
  def withBinId(df: DataFrame): DataFrame = {
    val keyRows = bins.map(b => Row.fromSeq(schema.r1.catAttrs.map(b.cats) ++
      schema.r1.numAttrs.map(a => intervals(a).indexOf(b.nums(a))) :+ b.id))
    val keyDf = df.sparkSession.createDataFrame(keyRows.asJava, StructType(
      schema.r1.catAttrs.map(StructField(_, StringType)) ++
        schema.r1.numAttrs.map(a => StructField(s"__ivl_$a", IntegerType)) :+
        StructField("__bin", IntegerType)))
    withIntervals(df).join(keyDf, keyCols, "left")
      .select(df.columns.toSeq.map(col) :+ coalesce(col("__bin"), lit(-1)).as("__bin"): _*)
  }
}

object Binning {

  /** Intervalize a numeric domain `[dMin, dMax]` at all CC endpoints. */
  def intervalize(dMin: Int, dMax: Int, ranges: Seq[NumRange]): IndexedSeq[Interval] = {
    val cuts = ranges.flatMap(r => Seq(r.lo, r.hi + 1))
      .filter(c => c > dMin && c <= dMax)
      .distinct.sorted
    val bounds = dMin +: cuts
    bounds.zipWithIndex.map { case (lo, i) =>
      val hi = if (i + 1 < bounds.size) bounds(i + 1) - 1 else dMax
      Interval(lo, hi)
    }.toIndexedSeq
  }

  /** Build bins for `r1` under the intervalization induced by `ccs`.
    * Throws `IllegalArgumentException` when an R1 attribute holds a null.
    */
  def build(r1: DataFrame, schema: DbSchema,
            ccs: Seq[CardinalityConstraint]): Binning = {
    val numAttrs = schema.r1.numAttrs
    val intervalsByAttr: Map[String, IndexedSeq[Interval]] = numAttrs.map { a =>
      val stats = r1.agg(min(col(a)).cast("int"), max(col(a)).cast("int")).head()
      require(!stats.isNullAt(0), s"R1 column $a has no non-null values")
      val (dMin, dMax) = (stats.getInt(0), stats.getInt(1))
      val ranges = ccs.flatMap(_.cond.byAttr.get(a)).collect { case r: NumRange => r }
      a -> intervalize(dMin, dMax, ranges)
    }.toMap

    val pre = Binning(schema, intervalsByAttr, IndexedSeq.empty)
    // Group on the bin key columns to enumerate bins.
    val rows = pre.withIntervals(r1).groupBy(pre.keyCols.map(col): _*).count()
      .collect()
      .sortBy(_.toString) // deterministic bin ids
    // A null categorical value stays null in the key; a null numeric one
    // falls in no interval (index -1).
    val nCat = schema.r1.catAttrs.size
    for (row <- rows; (a, i) <- schema.r1.attrs.zipWithIndex)
      require(if (i < nCat) !row.isNullAt(i) else row.getInt(i) >= 0, s"R1 column $a has null values")
    val bins = rows.zipWithIndex.map { case (row, id) =>
      val cats = schema.r1.catAttrs.zipWithIndex
        .map { case (a, i) => a -> row.get(i).toString }.toMap
      val nums = numAttrs.zipWithIndex.map { case (a, i) =>
        a -> intervalsByAttr(a)(row.getInt(schema.r1.catAttrs.size + i))
      }.toMap
      Bin(id, cats, nums, row.getLong(row.size - 1))
    }.toIndexedSeq
    Binning(schema, intervalsByAttr, bins)
  }
}

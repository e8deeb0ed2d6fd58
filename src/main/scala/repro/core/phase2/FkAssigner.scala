package repro.core.phase2

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}
import repro.core.model._
import repro.core.phase1.{Binning, CcCoverage, ComboSpace}
import scala.jdk.CollectionConverters._

/** One output row of the distributed coloring: the FK `hid` of the R1 tuple
  * keyed `k1`, which Phase I gave (or Phase II routed to) `combo`.
  */
final case class FkOut(k1: Long, hid: Long, combo: Int)

/** Result of Phase II. `r1Hat` is cached and materialized; `r2Hat` is `r2`
  * plus any fresh-key tuples created for skipped or invalid vertices
  * (Proposition 5.5).
  */
final case class Phase2Result(r1Hat: DataFrame, r2Hat: DataFrame)

/** Algorithm 4: complete `R1.FK` from the combo-annotated V_Join.
  *
  * The §5.2 optimization — one conflict hypergraph per distinct B-combo,
  * since candidate keys are disjoint across combos — maps directly to
  * `groupByKey(comboId).flatMapGroups`: each Spark task colors one
  * partition's conflict hypergraph, kept implicit by [[ImplicitGraph]], in
  * one largest-first pass over the combo's keys and then fresh keys (this
  * is also the parallelization suggested in §A.3). Invalid tuples (no B
  * values from Phase I) are routed to a second "lane" keyed by the
  * least-CC-impact combo of their bin and colored with fresh keys only,
  * which is trivially DC-safe w.r.t. previously colored tuples and
  * realizes `solveInvalidTuples`. `run` is
  * eager: it materializes R̂1 and releases its cached coloring output.
  */
object FkAssigner {

  def run(vjoin: DataFrame, r1: DataFrame, r2: DataFrame, schema: DbSchema,
          dcs: Seq[DenialConstraint], ccs: Seq[CardinalityConstraint],
          binning: Binning, comboSpace: ComboSpace): Phase2Result = {
    val spark = vjoin.sparkSession
    import spark.implicits._

    val combos = comboSpace.combos
    val maxHid = comboSpace.maxKey
    require(maxHid <= Long.MaxValue - ((combos.size + 2L) << 33),
            s"R2 key $maxHid leaves no room for fresh keys above it")
    // The coloring tries palette keys in index order, as `colorLF` tries them in value order.
    for (c <- combos)
      require(c.keys.indices.drop(1).forall(i => c.keys(i - 1) < c.keys(i)),
              s"combo ${c.id}: R2 keys are not strictly ascending")
    val compiled = ConflictGraph.compile(dcs, schema.r1)

    // Least-CC-impact combo per bin (lowest id on ties), for solveInvalidTuples,
    // at index `__bin + 1`: bin ids are dense, and `__bin = -1` maps to combo 0.
    val coverage = new CcCoverage(ccs, schema, binning, comboSpace)
    val bestCombo = 0 +: binning.bins.map(b => coverage.impact(b.id)).map(n => n.indexOf(n.min))

    // Group key: combo*2 for valid tuples, bestCombo*2+1 for invalid ones.
    val groupKey = when(col("__combo") >= 0, col("__combo").cast("long") * 2)
      .otherwise(typedLit(bestCombo).apply(col("__bin") + 1).cast("long") * 2 + 1)

    val outs = ConflictGraph.perGroup(vjoin, schema.r1, groupKey) {
      (gkey, rows) =>
        val combo = (gkey / 2).toInt
        val invalidLane = gkey % 2 == 1
        // Candidate FK values: the combo's housing keys, then |rows| fresh
        // keys `freshBase + i`. Fresh keys sort last and a fresh-colored
        // vertex forbids only its own key, so the palette choices are those
        // of a palette-only pass. |rows| fresh keys always suffice: while a
        // vertex is colored one is still unused, and a hyperedge can only
        // forbid a key that all its other vertices already hold.
        val palette = if (invalidLane) IndexedSeq.empty[Long] else combos(combo).keys
        val freshBase = maxHid + ((combo.toLong + 2) << 33) + (if (invalidLane) 1L << 32 else 0L)
        val colors = new ImplicitGraph(compiled, rows).colorLF(palette, freshBase)
        rows.indices.iterator.map(i => FkOut(rows(i).key, colors(i), combo))
      }.cache()

    val r1Hat = r1.drop(schema.r1.fk)
      .join(outs.select(col("k1").as(schema.r1.key), col("hid").as(schema.r1.fk)), Seq(schema.r1.key))
      .cache()
    r1Hat.count()

    // One R̂2 tuple per fresh key, carrying its combo's B values.
    val freshKeys = outs.filter(col("hid") > maxHid).select("hid", "combo")
      .as[(Long, Int)].collect().distinct.sorted
    outs.unpersist()
    val (k2, attrs) = (schema.r2.key, schema.r2.attrs)
    val newHousing = spark.createDataFrame(
      freshKeys.toSeq.map { case (h, c) => Row.fromSeq(h +: attrs.map(combos(c).values)) }.asJava,
      StructType(StructField(k2, LongType, nullable = false) +: attrs.map(StructField(_, StringType))))
    val r2Hat = r2.select(col(k2) +: attrs.map(col): _*).unionByName(newHousing)

    Phase2Result(r1Hat, r2Hat)
  }
}

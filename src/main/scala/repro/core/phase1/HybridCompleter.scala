package repro.core.phase1

import org.apache.spark.sql.DataFrame
import repro.core.ccrel.HasseDiagram
import repro.core.model._
import scala.collection.mutable

/** Timing/size breakdown of Phase I, matching the rows of the paper's
  * Figure 13 (pairwise comparison, recursion, ILP solver).
  */
final case class Phase1Stats(pairwiseMs: Long, recursionMs: Long, ilpMs: Long,
                             nS1: Int, nS2: Int, ilpVars: Int,
                             shortfalls: Seq[(String, Long)], nInvalidBins: Int)

/** Result of Phase I: V_Join with a `__combo` column (−1 = invalid tuple),
  * plus the binning/combo metadata Phase II needs.
  */
final case class Phase1Result(vjoin: DataFrame, binning: Binning,
                              comboSpace: ComboSpace, stats: Phase1Stats)

/** Hybrid approach of Section 4.3: split `S_CC` into the intersecting-free
  * part S1 (solved exactly by [[HasseCompleter]]) and the rest S2 (solved by
  * [[IlpCompleter]] with modified marginals), over a shared bin pool; then
  * complete leftover tuples with combinations that contribute to no CC.
  */
object HybridCompleter {

  /** Strategy for Phase I — the hybrid, or the two baseline variants that
    * push everything through the ILP (Section 6.1).
    */
  sealed trait Mode
  object Mode {
    /** Hasse recursion for S1, ILP with marginals for S2. */
    case object Hybrid extends Mode
    /** All CCs through the ILP, no marginal augmentation (Baseline). */
    case object IlpOnly extends Mode
    /** All CCs through the ILP with all-way marginals (Baseline+marg). */
    case object IlpOnlyMarginals extends Mode
  }

  def run(r1: DataFrame, r2: DataFrame, schema: DbSchema,
          ccs: Seq[CardinalityConstraint], mode: Mode): Phase1Result = {
    val binning = Binning.build(r1.drop(schema.r1.fk), schema, ccs)
    val comboSpace = ComboSpace.build(r2, schema)
    val pool = new BinPool(binning.bins)
    val allocs = mutable.ArrayBuffer.empty[Alloc]

    var pairwiseMs = 0L; var recursionMs = 0L; var ilpMs = 0L
    var nS1 = 0; var nS2 = 0; var ilpVars = 0
    var shortfalls: Seq[(String, Long)] = Nil

    mode match {
      case Mode.Hybrid =>
        val t0 = System.nanoTime()
        val split = HasseDiagram.split(ccs, schema)
        pairwiseMs = (System.nanoTime() - t0) / 1000000
        nS1 = split.s1.size; nS2 = split.s2.size

        val t1 = System.nanoTime()
        val hres = HasseCompleter.plan(split.forest, ccs, schema, binning, comboSpace, pool)
        recursionMs = (System.nanoTime() - t1) / 1000000
        allocs ++= hres.allocs
        shortfalls = hres.shortfalls

        if (split.s2.nonEmpty) {
          val t2 = System.nanoTime()
          val ires = IlpCompleter.plan(split.s2, schema, binning, comboSpace, pool,
                                       withMarginals = true, dropFreePairs = true)
          ilpMs = (System.nanoTime() - t2) / 1000000
          allocs ++= ires.allocs
          ilpVars = ires.nVars
        }

      case Mode.IlpOnly | Mode.IlpOnlyMarginals =>
        val t2 = System.nanoTime()
        val ires = IlpCompleter.plan(ccs, schema, binning, comboSpace, pool,
                                     withMarginals = mode == Mode.IlpOnlyMarginals)
        ilpMs = (System.nanoTime() - t2) / 1000000
        allocs ++= ires.allocs
        nS2 = ccs.size
        ilpVars = ires.nVars
    }

    // Leftover tuples. Hybrid (Algorithm 2 lines 14–17): per bin, a combo
    // that no CC covering the bin counts — per-bin rather than the global
    // combo_unused, which can only reduce the number of invalid tuples.
    // Baselines (Section 6.1): values are assigned uniformly at random, which
    // is what produces their CC error.
    var nInvalidBins = 0
    lazy val coverage = new CcCoverage(ccs, schema, binning, comboSpace)
    for ((binId, left) <- pool.remaining) {
      mode match {
        case Mode.Hybrid =>
          val impact = coverage.impact(binId)
          val safe = impact.indices.filter(impact(_) == 0)
          if (safe.isEmpty) nInvalidBins += 1 // stays __combo = -1 (invalid)
          else {
            // Spread leftovers over all safe combos (the paper assigns a
            // random unused combination per tuple) — this also keeps Phase
            // II's per-combo conflict graphs balanced.
            val share = math.max(1L, left / safe.size)
            var remaining = left
            // rotate the starting combo by bin so small leftovers don't all
            // land on the first safe combo
            val rotated = { val k = binId % safe.size; safe.drop(k) ++ safe.take(k) }
            val it = Iterator.continually(rotated).flatten
            while (remaining > 0) {
              val c = it.next()
              val got = pool.take(binId, math.min(share, remaining))
              if (got > 0) allocs += Alloc(binId, c, got)
              remaining -= math.min(share, remaining)
            }
          }
        case _ =>
          val rng = new scala.util.Random(0x5EED ^ binId)
          val buckets = Array.fill(comboSpace.combos.size)(0L)
          (0L until left).foreach(_ => buckets(rng.nextInt(buckets.length)) += 1)
          for (c <- buckets.indices; if buckets(c) > 0)
            allocs += Alloc(binId, c, pool.take(binId, buckets(c)))
      }
    }

    val r1WithBin = binning.withBinId(r1.drop(schema.r1.fk))
    val vjoin = AllocationPlan(r1WithBin, schema, allocs.toSeq)
    Phase1Result(vjoin, binning, comboSpace,
      Phase1Stats(pairwiseMs, recursionMs, ilpMs, nS1, nS2, ilpVars, shortfalls, nInvalidBins))
  }
}

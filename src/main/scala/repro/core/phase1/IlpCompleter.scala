package repro.core.phase1

import repro.core.model._
import repro.ilp._

/** Algorithm 1: V_Join completion by modeling the CCs as an integer
  * program over (bin, combo) count variables.
  *
  * Variables cover the bins and combos relevant to the given CCs, plus one
  * "elsewhere" variable per bin so that marginal rows (which constrain the
  * whole bin, not just its CC-relevant assignments) can balance. CC rows are
  * soft (L1-penalized) — the formulation tolerates CC error exactly like the
  * paper's; per-bin availability is hard.
  */
object IlpCompleter {

  final case class Result(allocs: Seq[Alloc], l1Error: Double, nVars: Int, nRows: Int)

  /** @param withMarginals add the per-bin (all-way-marginal) equality rows
    *                      of §4.1 / the modified marginals of §4.3
    * @param dropFreePairs when true (hybrid), allocations to pairs that no
    *                      CC row references are returned to the pool so the
    *                      leftover stage can spread them over safe combos;
    *                      when false (baselines), the solver's parking of
    *                      spare mass on arbitrary pairs is materialized —
    *                      CC-neutral, like the paper's marginal-augmented
    *                      baseline that fills every tuple
    */
  def plan(ccs: Seq[CardinalityConstraint], schema: DbSchema,
           binning: Binning, comboSpace: ComboSpace, pool: BinPool,
           withMarginals: Boolean, dropFreePairs: Boolean = false): Result = {
    if (ccs.isEmpty) return Result(Nil, 0.0, 0, 0)

    val coverage = new CcCoverage(ccs, schema, binning, comboSpace)

    val relevantBins = binning.bins
      .filter(b => pool.available(b.id) > 0 && ccs.exists(cc => coverage.bins(cc.id)(b.id)))
      .map(_.id)
    val relevantCombos = comboSpace.combos
      .filter(c => ccs.exists(cc => coverage.combos(cc.id)(c.id)))
      .map(_.id)

    // Variable layout: one per (bin, combo) pair + one "elsewhere" per bin.
    val pairIdx: Map[(Int, Int), Int] =
      (for ((b, i) <- relevantBins.zipWithIndex;
            (c, j) <- relevantCombos.zipWithIndex)
        yield (b, c) -> (i * relevantCombos.size + j)).toMap
    val elseIdx: Map[Int, Int] = relevantBins.zipWithIndex
      .map { case (b, i) => b -> (relevantBins.size * relevantCombos.size + i) }.toMap
    val nVars = relevantBins.size * relevantCombos.size + relevantBins.size

    val ccRows = ccs.toIndexedSeq.map { cc =>
      val coeffs = for {
        b <- relevantBins if coverage.bins(cc.id)(b)
        c <- relevantCombos if coverage.combos(cc.id)(c)
      } yield pairIdx((b, c)) -> 1.0
      SoftRow(coeffs.toMap, cc.target.toDouble)
    }
    val marginalRows =
      if (!withMarginals) IndexedSeq.empty
      else relevantBins.toIndexedSeq.map { b =>
        val coeffs = relevantCombos.map(c => pairIdx((b, c)) -> 1.0).toMap +
          (elseIdx(b) -> 1.0)
        SoftRow(coeffs, pool.available(b).toDouble)
      }
    val availRows = relevantBins.toIndexedSeq.map { b =>
      val coeffs = relevantCombos.map(c => pairIdx((b, c)) -> 1.0).toMap +
        (elseIdx(b) -> 1.0)
      LpRow(coeffs, RowSense.Le, pool.available(b).toDouble)
    }

    val inst = CountIlp(nVars, ccRows ++ marginalRows, availRows)
    val sol = IlpSolver.solve(inst)

    // Pairs that appear in at least one CC row. The marginal rows let the
    // solver park spare bin mass on *any* pair at zero cost; in the hybrid,
    // materializing those "free" pairs would distort the B-value
    // distribution and create giant Phase-II conflict partitions, so they
    // are returned to the pool — removing them cannot change any CC count.
    val ccPairs: Set[Int] = ccRows.flatMap(_.coeffs.keys).toSet

    // Greedy fill (lines 15–17): clamp each x to what the pool still has.
    val allocs = for {
      b <- relevantBins
      c <- relevantCombos
      j = pairIdx((b, c)) if !dropFreePairs || ccPairs(j)
      want = sol.x(j) if want > 0
      got = pool.take(b, want) if got > 0
    } yield Alloc(b, c, got)

    Result(allocs, sol.l1Error, nVars, ccRows.size + marginalRows.size + availRows.size)
  }
}

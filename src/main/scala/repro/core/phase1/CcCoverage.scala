package repro.core.phase1

import repro.core.model._
import scala.collection.immutable.BitSet

/** Which (bin, combo) pairs each CC counts. A tuple of bin `b` given the B
  * values of combo `c` counts toward a CC iff `b` satisfies the CC's R1
  * condition and `c` its R2 condition; bins are atomic with respect to every
  * R1 condition, so coverage is exact at (bin, combo) granularity.
  *
  * This is the one place where CC conditions are evaluated on bins and
  * combos. Algorithm 2 reads it for eligibility and `combo_unused`,
  * Algorithm 1 for its rows, and `solveInvalidTuples` for the
  * least-CC-impact combo.
  */
final class CcCoverage(ccs: Seq[CardinalityConstraint], schema: DbSchema,
                       binning: Binning, comboSpace: ComboSpace) {

  /** CC id → bins whose tuples satisfy the CC's R1 condition. */
  val bins: Map[String, BitSet] = ccs.map { cc =>
    val cond = cc.r1Cond(schema)
    cc.id -> BitSet(binning.bins.filter(_.matchesR1Cond(cond)).map(_.id): _*)
  }.toMap

  /** CC id → combos that satisfy the CC's R2 condition. */
  val combos: Map[String, BitSet] = ccs.map { cc =>
    val cond = cc.r2Cond(schema)
    cc.id -> BitSet(comboSpace.combos.filter(_.matchesR2Cond(cond)).map(_.id): _*)
  }.toMap

  /** Combo id → CCs whose R2 condition the combo satisfies, in CC order. */
  lazy val ccsByCombo: IndexedSeq[Seq[CardinalityConstraint]] =
    comboSpace.combos.map(c => ccs.filter(cc => combos(cc.id)(c.id)))

  /** Combo id → number of CCs that count the pair (`binId`, combo). */
  def impact(binId: Int): IndexedSeq[Int] = {
    val n = Array.fill(comboSpace.combos.size)(0)
    for (cc <- ccs if bins(cc.id)(binId); c <- combos(cc.id)) n(c) += 1
    n.toIndexedSeq
  }
}

package repro.core.phase1

import repro.core.ccrel.{HasseForest, HasseNode}
import repro.core.model._
import scala.collection.immutable.BitSet
import scala.collection.mutable

/** Algorithm 2: exact V_Join completion for non-intersecting CCs via
  * bottom-up recursion on the Hasse containment forest.
  *
  * The algorithm runs over *bin counts*, not individual tuples (tuples in a
  * bin are interchangeable), and allocates at (bin, combo) granularity. That
  * generalizes line 12 of the paper's Algorithm 2 — `σ_m ∧ ¬σ_c` over R1
  * attributes — to containments that differ only on R2 attributes (e.g. an
  * Area-only CC containing Tenure-Area CCs): a pair (bin, combo) is eligible
  * for a node iff it satisfies the node's full condition and contributes to
  * no CC outside the node's ancestor chain.
  */
object HasseCompleter {

  /** @param allocs     per-(bin, combo) quota plan
    * @param shortfalls CC id → number of tuples that could not be found
    *                   (empty whenever a consistent completion exists)
    */
  final case class Result(allocs: Seq[Alloc], shortfalls: Seq[(String, Long)])

  def plan(forest: HasseForest, allCcs: Seq[CardinalityConstraint],
           schema: DbSchema, binning: Binning, comboSpace: ComboSpace,
           pool: BinPool): Result = {

    val coverage = new CcCoverage(allCcs, schema, binning, comboSpace)

    val allocs = mutable.ArrayBuffer.empty[Alloc]
    val shortfalls = mutable.ArrayBuffer.empty[(String, Long)]

    /** Allocate the subtree at `node`; `ancestors` = CC ids on the chain from
      * the root to `node` inclusive. Returns tuples allocated in the subtree
      * (they all count toward `node`'s target, children being contained).
      */
    def go(node: HasseNode, ancestors: Set[String]): Long = {
      val fromChildren = node.children
        .map(c => go(c, ancestors + c.cc.id)).sum
      var needed = math.max(0L, node.cc.target - fromChildren)
      var filled = 0L
      val myBins = coverage.bins(node.cc.id)
      val myCombos = coverage.combos(node.cc.id)
      val comboIt = myCombos.iterator
      while (needed > 0 && comboIt.hasNext) {
        val comboId = comboIt.next()
        // Bins that, paired with this combo, touch only ancestor CCs.
        val danger = coverage.ccsByCombo(comboId).filterNot(cc => ancestors(cc.id))
        val blocked = danger.foldLeft(BitSet.empty)((acc, cc) => acc | coverage.bins(cc.id))
        val okBins = myBins &~ blocked
        val binIt = okBins.iterator
        while (needed > 0 && binIt.hasNext) {
          val binId = binIt.next()
          val got = pool.take(binId, needed)
          if (got > 0) {
            allocs += Alloc(binId, comboId, got)
            needed -= got
            filled += got
          }
        }
      }
      if (needed > 0) shortfalls += node.cc.id -> needed
      fromChildren + filled
    }

    forest.roots.foreach(r => go(r, Set(r.cc.id)))
    Result(allocs.toSeq, shortfalls.toSeq)
  }
}

package repro.core.ccrel

import repro.core.model.{CardinalityConstraint, DbSchema}
import scala.collection.mutable

/** Node of a Hasse forest over CC containment: the CC plus its immediate
  * (maximal) children. Inside a set with no intersecting pairs, containment
  * is a forest — a CC contained in two incomparable CCs would make those two
  * CCs intersecting.
  */
final case class HasseNode(cc: CardinalityConstraint, children: Seq[HasseNode])

/** Hasse "diagrams" (Section 4.2): a forest of containment trees, one tree
  * per diagram, with disjoint roots.
  */
final case class HasseForest(roots: Seq[HasseNode])

object HasseDiagram {

  /** Split of `S_CC` for the hybrid approach (Section 4.3).
    *
    * @param s1 CCs with no (transitive) relation to any intersecting pair —
    *           handled exactly by Algorithm 2 over `forest`
    * @param s2 CCs in a connected component (under containment ∪
    *           intersection edges) that contains an intersecting pair —
    *           handled by the ILP (Algorithm 1)
    */
  final case class Split(s1: Seq[CardinalityConstraint],
                         s2: Seq[CardinalityConstraint],
                         forest: HasseForest)

  /** Build the containment forest for a set of pairwise non-intersecting CCs. */
  def buildForest(ccs: Seq[CardinalityConstraint]): HasseForest = {
    val n = ccs.size
    // strictContains(i)(j) == true iff ccs(j) ⊂ ccs(i) strictly
    val contains = Array.tabulate(n, n) { (i, j) =>
      i != j && ccs(j).cond.containedIn(ccs(i).cond) &&
        !ccs(i).cond.containedIn(ccs(j).cond)
    }
    // parent(j) = minimal strict container of j (unique in a forest)
    val parent = Array.fill(n)(-1)
    for (j <- 0 until n) {
      val containers = (0 until n).filter(i => contains(i)(j))
      val minimal = containers.filter(i => !containers.exists(k => contains(i)(k)))
      require(minimal.size <= 1,
        s"multiple minimal containers for ${ccs(j).id}: ${minimal.map(ccs(_).id)} — " +
          "set contains intersecting CCs")
      if (minimal.nonEmpty) parent(j) = minimal.head
    }
    val childIdx = (0 until n).groupBy(parent)
    def mk(i: Int): HasseNode =
      HasseNode(ccs(i), childIdx.getOrElse(i, Nil).map(mk))
    HasseForest((0 until n).filter(parent(_) == -1).map(mk))
  }

  /** Compute the S1/S2 split of Section 4.3.
    *
    * Edges connect any two non-disjoint CCs (containment, identical or
    * intersecting). Every connected component touching an intersecting or
    * identical pair is routed to the ILP (S2); the rest (S1) is guaranteed
    * pairwise disjoint-or-contained, and each S1 component is a Hasse tree.
    * By construction every S1–S2 pair is disjoint, as §4.3 requires.
    */
  def split(ccs: Seq[CardinalityConstraint], schema: DbSchema): Split = {
    val n = ccs.size
    val parentUf = Array.tabulate(n)(identity)
    def find(x: Int): Int = { var r = x; while (parentUf(r) != r) r = parentUf(r); r }
    def union(a: Int, b: Int): Unit = { val ra = find(a); val rb = find(b); if (ra != rb) parentUf(ra) = rb }

    val badComponents = mutable.Set.empty[Int]
    for (i <- 0 until n; j <- (i + 1) until n) {
      CCRelation.relate(ccs(i), ccs(j), schema) match {
        case CCRelation.Disjoint => ()
        case CCRelation.Intersecting | CCRelation.Identical =>
          union(i, j); badComponents += find(i)
        case _ => union(i, j)
      }
    }
    // Roots may have moved during later unions; re-resolve bad roots.
    val badRoots = badComponents.map(find)
    val (s2Idx, s1Idx) = (0 until n).partition(i => badRoots(find(i)))
    val s1 = s1Idx.map(ccs)
    Split(s1, s2Idx.map(ccs), buildForest(s1))
  }
}

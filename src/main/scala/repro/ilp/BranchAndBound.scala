package repro.ilp

import scala.collection.mutable

/** Result of an integer solve: `x` restricted to integral values. */
final case class IlpResult(x: Array[Long], objective: Double)

/** Depth-first branch & bound over the LP relaxation.
  *
  * Branches on the most fractional variable among `intVars`, ceil branch
  * first (counts tend to be pushed up by the L1 formulation). Node- and
  * iteration-limited: on exhaustion the best incumbent (if any) is returned;
  * with no incumbent the caller is expected to fall back to rounding (see
  * [[IlpSolver]]).
  */
object BranchAndBound {
  private val IntTol = 1e-6

  def solve(p: LpProblem, intVars: Range, maxNodes: Int = 400): Option[IlpResult] = {
    var incumbent: Option[(Array[Long], Double)] = None
    var nodes = 0
    // stack entries: extra bound rows added so far
    val stack = mutable.Stack[List[LpRow]](Nil)

    while (stack.nonEmpty && nodes < maxNodes) {
      val extra = stack.pop()
      nodes += 1
      val sub = p.copy(rows = p.rows ++ extra)
      val res = Simplex.solve(sub)
      if (res.status == LpStatus.Optimal) {
        val bound = res.objective
        val beatIncumbent = incumbent.forall(bound < _._2 - 1e-9)
        if (beatIncumbent) {
          // most fractional integer variable
          var fracVar = -1; var fracDist = IntTol
          for (j <- intVars) {
            val v = res.x(j)
            val d = math.abs(v - math.round(v))
            if (d > fracDist) { fracDist = d; fracVar = j }
          }
          if (fracVar == -1) {
            val xi = intVars.map(j => math.round(res.x(j)).max(0L)).toArray
            incumbent = Some((xi, bound))
          } else {
            val v = res.x(fracVar)
            val lo = math.floor(v)
            stack.push(LpRow(Map(fracVar -> 1.0), RowSense.Le, lo) :: extra)
            stack.push(LpRow(Map(fracVar -> 1.0), RowSense.Ge, lo + 1.0) :: extra)
          }
        }
      }
    }
    incumbent.map { case (x, obj) =>
      IlpResult(x, obj)
    }
  }
}

package repro.ilp

/** Soft count row `Σ coeffs(j)·x_j ≈ target`, penalized by L1 deviation. */
final case class SoftRow(coeffs: Map[Int, Double], target: Double)

/** Count-fitting integer program:
  * minimize `Σ_i |soft_i · x − target_i|` subject to the hard rows and
  * `x ≥ 0` integer. CC rows (and marginal rows, when augmenting) are soft —
  * mirroring how the paper's formulation tolerates CC error — while per-bin
  * availability rows are hard.
  */
final case class CountIlp(nVars: Int, soft: IndexedSeq[SoftRow], hard: IndexedSeq[LpRow])

final case class CountSolution(x: Array[Long], l1Error: Double, exact: Boolean)

/** ILP facade for Algorithm 1: L1-slack LP relaxation via [[Simplex]],
  * integralized by [[BranchAndBound]] when small enough / near-integral,
  * with a deterministic round-and-repair fallback otherwise.
  */
object IlpSolver {
  private val IntTol = 1e-6

  def solve(inst: CountIlp, maxNodes: Int = 40): CountSolution = {
    val n = inst.nVars
    val k = inst.soft.size
    // layout: [x (n)] [s+ (k)] [s- (k)]
    val nTot = n + 2 * k
    val obj = Array.ofDim[Double](nTot)
    for (i <- 0 until 2 * k) obj(n + i) = 1.0
    val softRows = inst.soft.zipWithIndex.map { case (s, i) =>
      LpRow(s.coeffs ++ Map(n + i -> 1.0, n + k + i -> -1.0), RowSense.Eq, s.target)
    }
    val p = LpProblem(nTot, obj, softRows ++ inst.hard)

    val lp = Simplex.solve(p)
    if (lp.status == LpStatus.Optimal || lp.status == LpStatus.IterationLimit) {
      val xs = (0 until n).map(lp.x)
      val integral = xs.forall(v => math.abs(v - math.round(v)) < IntTol)
      if (integral && lp.status == LpStatus.Optimal) {
        val x = xs.map(v => math.round(v).max(0L)).toArray
        return finish(inst, x)
      }
      // Try exact integralization when the problem is modest.
      if (lp.status == LpStatus.Optimal && n.toLong * (softRows.size + inst.hard.size) <= 200000) {
        BranchAndBound.solve(p, 0 until n, maxNodes) match {
          case Some(r) => return finish(inst, r.x.take(n))
          case None    => ()
        }
      }
      // Fallback: round the relaxation and repair locally.
      val x0 = xs.map(v => math.round(v).max(0L)).toArray
      return finish(inst, repair(inst, x0))
    }
    // LP infeasible can only come from hard rows; start from zero and repair.
    finish(inst, repair(inst, Array.fill(n)(0L)))
  }

  private def finish(inst: CountIlp, x: Array[Long]): CountSolution = {
    val err = l1(inst, x)
    CountSolution(x, err, err < 1e-9)
  }

  /** L1 deviation of the soft rows under integer point `x`. */
  def l1(inst: CountIlp, x: Array[Long]): Double =
    inst.soft.map(s => math.abs(s.coeffs.map { case (j, a) => a * x(j) }.sum - s.target)).sum

  private def hardOk(inst: CountIlp, x: Array[Long]): Boolean =
    inst.hard.forall { r =>
      val v = r.coeffs.map { case (j, a) => a * x(j) }.sum
      r.sense match {
        case RowSense.Le => v <= r.rhs + 1e-9
        case RowSense.Ge => v >= r.rhs - 1e-9
        case RowSense.Eq => math.abs(v - r.rhs) < 1e-9
      }
    }

  /** Greedy ±1 local search on the L1 objective, keeping hard rows satisfied.
    * Deterministic; terminates because the objective strictly decreases.
    */
  private def repair(inst: CountIlp, start: Array[Long]): Array[Long] = {
    val x = start.clone()
    // If rounding broke a hard ≤ row, scale offenders down first.
    var guard = 0
    while (!hardOk(inst, x) && guard < 10000) {
      val bad = inst.hard.find { r =>
        val v = r.coeffs.map { case (j, a) => a * x(j) }.sum
        r.sense == RowSense.Le && v > r.rhs + 1e-9
      }
      bad match {
        case Some(r) =>
          r.coeffs.keys.find(j => x(j) > 0) match {
            case Some(j) => x(j) -= 1
            case None    => guard = 10000
          }
        case None => guard = 10000
      }
      guard += 1
    }

    val softByVar: Map[Int, IndexedSeq[Int]] =
      inst.soft.indices.flatMap(i => inst.soft(i).coeffs.keys.map(_ -> i))
        .groupBy(_._1).map { case (j, xs) => j -> xs.map(_._2).toIndexedSeq }
    val hardByVar: Map[Int, IndexedSeq[Int]] =
      inst.hard.indices.flatMap(i => inst.hard(i).coeffs.keys.map(_ -> i))
        .groupBy(_._1).map { case (j, xs) => j -> xs.map(_._2).toIndexedSeq }
    val resid = inst.soft.map(s => s.coeffs.map { case (j, a) => a * x(j) }.sum - s.target).toArray
    val hardUse = inst.hard.map(r => r.coeffs.map { case (j, a) => a * x(j) }.sum).toArray

    /** Would moving variable `j` by `d` keep every hard row it touches valid? */
    def moveOk(j: Int, d: Long): Boolean =
      hardByVar.getOrElse(j, IndexedSeq.empty).forall { i =>
        val r = inst.hard(i)
        val v = hardUse(i) + r.coeffs(j) * d
        r.sense match {
          case RowSense.Le => v <= r.rhs + 1e-9
          case RowSense.Ge => v >= r.rhs - 1e-9
          case RowSense.Eq => math.abs(v - r.rhs) < 1e-9
        }
      }

    var improved = true
    var steps = 0
    val maxSteps = 50 * math.max(1, x.length)
    while (improved && steps < maxSteps) {
      improved = false
      var bestJ = -1; var bestD = 0L; var bestGain = 1e-9
      for (j <- x.indices; d <- Seq(1L, -1L); if x(j) + d >= 0) {
        val rows = softByVar.getOrElse(j, IndexedSeq.empty)
        var gain = 0.0
        rows.foreach { i =>
          val a = inst.soft(i).coeffs(j)
          gain += math.abs(resid(i)) - math.abs(resid(i) + a * d)
        }
        if (gain > bestGain && moveOk(j, d)) {
          bestJ = j; bestD = d; bestGain = gain
        }
      }
      if (bestJ >= 0) {
        x(bestJ) += bestD
        softByVar.getOrElse(bestJ, IndexedSeq.empty).foreach { i =>
          resid(i) += inst.soft(i).coeffs(bestJ) * bestD
        }
        hardByVar.getOrElse(bestJ, IndexedSeq.empty).foreach { i =>
          hardUse(i) += inst.hard(i).coeffs(bestJ) * bestD
        }
        improved = true
        steps += 1
      }
    }
    x
  }
}

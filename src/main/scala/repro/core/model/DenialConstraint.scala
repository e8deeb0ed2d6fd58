package repro.core.model

/** Comparison operator for cross-tuple atoms in a DC, over `Long`s so that
  * an `Int` value plus an offset cannot wrap.
  */
sealed trait CmpOp extends Serializable {
  def eval(l: Long, r: Long): Boolean
}
object CmpOp {
  case object Lt extends CmpOp { def eval(l: Long, r: Long): Boolean = l < r }
  case object Gt extends CmpOp { def eval(l: Long, r: Long): Boolean = l > r }
  case object Le extends CmpOp { def eval(l: Long, r: Long): Boolean = l <= r }
  case object Ge extends CmpOp { def eval(l: Long, r: Long): Boolean = l >= r }
  case object EqOp extends CmpOp { def eval(l: Long, r: Long): Boolean = l == r }
  case object Ne extends CmpOp { def eval(l: Long, r: Long): Boolean = l != r }
}

/** Cross-tuple atom `t_i.attrI op (t_j.attrJ + offset)` over numeric attrs. */
final case class CrossCond(i: Int, attrI: String, op: CmpOp,
                           j: Int, attrJ: String, offset: Int) extends Serializable

/** Foreign Key denial constraint (Definition 2.2):
  *
  * `∀ t_1..t_k. ¬( slot-conds ∧ cross-conds ∧ t_1.FK = ... = t_k.FK )`
  *
  * `slots(i)` is a conjunctive single-tuple condition on `t_{i+1}`; `cross`
  * relates numeric attributes of two slots. DCs with `Rel ∈ {..}` or
  * "age outside [lo,hi]" disjunctions are expanded into several conjunctive
  * DCs by the constraint generators (one per alternative). DCs are
  * evaluated only once `repro.core.phase2.ConflictGraph.compile` has
  * resolved their attributes against an R1 schema.
  *
  * @param name  identifier for reporting
  * @param slots per-tuple conjunctive conditions; `slots.size` = DC arity k
  * @param cross cross-tuple comparison atoms
  */
final case class DenialConstraint(name: String, slots: Seq[SelCond],
                                  cross: Seq[CrossCond]) extends Serializable {
  require(slots.size >= 2, s"FK DC needs arity ≥ 2, got ${slots.size} in $name")

  def arity: Int = slots.size
}

package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.model._
import repro.core.model.CmpOp._
import repro.eval.ErrorMeasures

/** The NAE-3SAT reduction of Proposition 2.8, run through the full solver:
  * exercises arity-3 hyperedge DCs and cross-tuple equality atoms end to end.
  */
class ReductionSpec extends SparkSpec {

  import ReductionSpec.dcs

  // R1(tid, Var, Alpha, Cls, Chosen) — all numeric; R2(Chosen, E)
  private val schema = DbSchema(
    R1Schema("tid", Seq.empty, Seq("Var", "Alpha", "Cls"), "Chosen"),
    R2Schema("Chosen", Seq("E")))

  /** Encode φ = (x1 ∨ x2 ∨ ¬x3) ∧ (¬x1 ∨ x2 ∨ x3): tuples (Var, α, Cls). */
  private def r1 = {
    import spark.implicits._
    Seq(
      (1L, 1, 1, 1), (2L, 2, 1, 1), (3L, 3, 0, 1),
      (4L, 1, 0, 2), (5L, 2, 1, 2), (6L, 3, 1, 2),
    ).toDF("tid", "Var", "Alpha", "Cls")
      .withColumn("Chosen", lit(null).cast("long"))
  }

  /** Both Chosen values share the same E so the whole relation is one combo
    * and both colors are candidates for every tuple.
    */
  private def r2 = {
    import spark.implicits._
    Seq((0L, "e"), (1L, "e")).toDF("Chosen", "E")
  }

  test("solver completes Chosen without violating either reduction DC") {
    val res = CExtension.run(r1, r2, schema, Nil, dcs)
    assert(res.r1Hat.count() == 6)
    assert(ErrorMeasures.dcViolationFraction(res.r1Hat, schema, dcs) == 0.0)
    res.vjoin.unpersist(); res.r1Hat.unpersist()
  }

  test("the completion encodes a proper NAE assignment when no keys are added") {
    val res = CExtension.run(r1, r2, schema, Nil, dcs)
    val chosen = res.r1Hat.select("tid", "Chosen").collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    // If the solver used only the two original keys, each clause must be
    // non-monochromatic — i.e. a valid NAE-3SAT witness.
    if (chosen.values.forall(v => v == 0L || v == 1L)) {
      val clause1 = Seq(1L, 2L, 3L).map(chosen)
      val clause2 = Seq(4L, 5L, 6L).map(chosen)
      assert(clause1.distinct.size > 1)
      assert(clause2.distinct.size > 1)
    }
    res.vjoin.unpersist(); res.r1Hat.unpersist()
  }

  test("DC error measure flags a monochromatic clause") {
    import spark.implicits._
    val badR1 = Seq(
      (1L, 1, 1, 1, 0L), (2L, 2, 1, 1, 0L), (3L, 3, 0, 1, 0L),
    ).toDF("tid", "Var", "Alpha", "Cls", "Chosen")
    assert(ErrorMeasures.dcViolationFraction(badR1, schema, dcs) == 1.0)
  }
}

object ReductionSpec {
  /** The two DCs of the reduction, over numeric `Var`, `Alpha` and `Cls`. */
  val dcs: Seq[DenialConstraint] = Seq(
    // (1) same variable, opposite polarity ⇒ different Chosen
    DenialConstraint("var_consistency", Seq(SelCond.empty, SelCond.empty),
      Seq(CrossCond(0, "Var", EqOp, 1, "Var", 0),
          CrossCond(0, "Alpha", Ne, 1, "Alpha", 0))),
    // (2) three literals of a clause cannot all share Chosen
    DenialConstraint("clause_nae", Seq(SelCond.empty, SelCond.empty, SelCond.empty),
      Seq(CrossCond(0, "Cls", EqOp, 1, "Cls", 0),
          CrossCond(1, "Cls", EqOp, 2, "Cls", 0))))
}

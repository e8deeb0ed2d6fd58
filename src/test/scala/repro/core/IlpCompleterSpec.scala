package repro.core

import repro.core.model._
import repro.core.phase1._
import repro.{PaperExample, SparkSpec}

class IlpCompleterSpec extends SparkSpec {
  import PaperExample.schema

  private def fixture(ccs: Seq[CardinalityConstraint]) = {
    val r1 = PaperExample.r1(spark).drop("hid")
    val binning = Binning.build(r1, schema, ccs)
    val comboSpace = ComboSpace.build(PaperExample.r2(spark), schema)
    val pool = new BinPool(binning.bins)
    (binning, comboSpace, pool)
  }

  test("paper Example 4.1's system solves exactly with marginals") {
    val ccs = PaperExample.ccs
    val (binning, comboSpace, pool) = fixture(ccs)
    val res = IlpCompleter.plan(ccs, schema, binning, comboSpace, pool, withMarginals = true)
    assert(res.l1Error == 0.0, s"l1=${res.l1Error}")
    // verify every CC's count under the alloc plan
    for (cc <- ccs) {
      val r1c = cc.r1Cond(schema); val r2c = cc.r2Cond(schema)
      val got = res.allocs.filter(a =>
        binning.bins(a.binId).matchesR1Cond(r1c) &&
          comboSpace.combos(a.comboId).matchesR2Cond(r2c)).map(_.count).sum
      assert(got == cc.target, s"${cc.id}: $got != ${cc.target}")
    }
  }

  test("without marginals some tuples may stay unassigned but CCs still fit") {
    val ccs = PaperExample.ccs
    val (binning, comboSpace, pool) = fixture(ccs)
    val res = IlpCompleter.plan(ccs, schema, binning, comboSpace, pool, withMarginals = false)
    assert(res.l1Error == 0.0)
  }

  test("allocations never exceed bin availability") {
    val ccs = PaperExample.ccs
    val (binning, comboSpace, pool) = fixture(ccs)
    val res = IlpCompleter.plan(ccs, schema, binning, comboSpace, pool, withMarginals = true)
    res.allocs.groupBy(_.binId).foreach { case (binId, as) =>
      assert(as.map(_.count).sum <= binning.bins(binId).count)
    }
  }

  test("empty CC set is a no-op") {
    val (binning, comboSpace, pool) = fixture(PaperExample.ccs)
    val res = IlpCompleter.plan(Nil, schema, binning, comboSpace, pool, withMarginals = true)
    assert(res.allocs.isEmpty && res.nVars == 0)
  }

  test("infeasible target degrades gracefully with bounded error") {
    val big = CardinalityConstraint("big",
      SelCond(Seq(CatEq("Rel", "Owner"), CatEq("Area", "Chicago"))), 100)
    val (binning, comboSpace, pool) = fixture(Seq(big))
    val res = IlpCompleter.plan(Seq(big), schema, binning, comboSpace, pool,
                                withMarginals = true)
    // only 6 owners exist; solver should allocate them all and miss by 94
    assert(res.l1Error >= 94.0 && res.l1Error <= 100.0)
    assert(res.allocs.map(_.count).sum <= 6)
  }
}

package repro.bench

import repro.SparkSpec
import repro.eval.TableReports

/** Figure 13: runtime breakdown of the hybrid approach as the CC count
  * grows, for good vs bad CC sets.
  *
  * Paper (10×, 900 CCs): good set — pairwise 4.48s (1.1%), recursion 1.70m
  * (25.6%), no ILP, coloring 4.87m (73.2%); bad set — pairwise 4.24s (0.1%),
  * recursion 1.29m (1.8%), ILP 1.06h (86.2%), coloring 8.77m (11.9%).
  * The load-bearing shape: the good set never touches the ILP solver and the
  * bad set's runtime is dominated by it; coloring dominates the good set.
  */
class Figure13BreakdownBench extends SparkSpec {

  test("Figure 13: hybrid runtime breakdown, good vs bad CC sets") {
    val rows = TableReports.figure13Rows(spark)
    println("[Fig 13] paper @900CCs: good = 4.48s pairwise / 1.70m recursion / no ILP " +
      "/ 4.87m coloring; bad = 4.24s / 1.29m / 1.06h ILP / 8.77m coloring")
    println(TableReports.renderBreakdown(rows))

    val good = rows.filter(_.ccSetName == "good")
    val bad = rows.filter(_.ccSetName == "bad")

    // good CC sets never invoke the ILP solver
    good.foreach(r => assert(r.ilpMs == 0, s"good set used ILP: $r"))
    // bad CC sets must go through the ILP, and it dominates Phase I there
    bad.foreach { r =>
      assert(r.ilpMs > 0, s"bad set skipped ILP: $r")
      assert(r.ilpMs >= r.recursionMs, s"ILP should dominate recursion on bad sets: $r")
    }
    // The split sizes are the load-bearing structure: good sets stay
    // entirely in S1, bad sets route a large share to S2/ILP. (At our scale
    // the ILP solves in milliseconds — unlike the paper's hours with PuLP on
    // 30× more CCs — so wall-clock totals are noise and only printed.)
    good.foreach(r => assert(r.nS2 == 0 && r.nS1 == r.nCCs, s"good split: $r"))
    bad.foreach { r =>
      assert(r.nS2 >= r.nCCs / 4, s"bad split routed too little to the ILP: $r")
      assert(r.ilpVars > 0, s"bad ILP had no variables: $r")
    }
    good.zip(bad).foreach { case (g, b) =>
      val gTotal = g.pairwiseMs + g.recursionMs + g.ilpMs + g.phase2Ms
      val bTotal = b.pairwiseMs + b.recursionMs + b.ilpMs + b.phase2Ms
      println(s"[Fig 13] n=${g.nCCs}: total good=${gTotal}ms bad=${bTotal}ms")
    }
    // errors stay at the Figure 8 levels while sweeping the CC count
    rows.foreach(r => assert(r.dcErr == 0.0, s"hybrid DC error: $r"))
    good.foreach(r => assert(r.ccMedian == 0.0 && r.ccMean == 0.0, s"good CC error: $r"))
    bad.foreach(r => assert(r.ccMedian <= 0.05, s"bad CC median: $r"))
  }
}

package repro.core

import repro.SparkSpec
import repro.baseline.BaselineArasu
import repro.census.{CensusData, ConstraintGen}
import repro.eval.Harness

/** The solvers' outputs do not depend on how many partitions Spark shuffles
  * into: Phase I's allocation, Phase II's routing of valid and invalid tuples
  * and its fresh keys are all keyed on data, not on partition layout.
  */
class ShufflePartitionsSpec extends SparkSpec {
  private val Key = "spark.sql.shuffle.partitions"

  /** (pid → hid), the R̂2 rows and (pid → `__combo`) of one solve; releases
    * the solve's cached relations.
    */
  private def outputs(res: CExtensionResult): (Map[Any, Any], Set[Seq[Any]], Map[Any, Any]) = {
    def pairs(df: org.apache.spark.sql.DataFrame, a: String, b: String) =
      df.select(a, b).collect().map(r => r.get(0) -> r.get(1)).toMap
    val out = (pairs(res.r1Hat, "pid", "hid"), res.r2Hat.collect().map(_.toSeq).toSet,
               pairs(res.vjoin, "pid", "__combo"))
    res.vjoin.unpersist(); res.r1Hat.unpersist()
    out
  }

  for (seed <- Seq(3L, 11L); (scale, nAreas) <- Seq((0.05, 4), (0.2, 2)))
    test(s"seed $seed, ${scale}x census, $nAreas areas: same outputs under 1, 3 and 8 shuffle partitions") {
      val d = Harness.data(spark, scale, nAreas, seed)
      val r1 = CensusData.blind(d.persons)
      val saved = spark.conf.get(Key)
      try {
        for ((ccName, ccs) <- Seq("good" -> ConstraintGen.sccGood(d.gtJoin, nAreas),
                                  "bad" -> ConstraintGen.sccBad(d.gtJoin, nAreas));
             (algo, solve) <- Seq[(String, () => CExtensionResult)](
               "hybrid" -> (() => CExtension.run(r1, d.housing, Harness.schema, ccs, ConstraintGen.sdcAll)),
               "baselineM" -> (() => BaselineArasu.run(r1, d.housing, Harness.schema, ccs, withMarginals = true)))) {
          val runs = Seq(1, 3, 8).map { n => spark.conf.set(Key, n.toLong); outputs(solve()) }
          assert(runs.forall(_ == runs.head), s"$algo with $ccName CCs differs across shuffle partition counts")
        }
      } finally { spark.conf.set(Key, saved); Harness.release(d) }
    }
}

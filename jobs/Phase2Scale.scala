package repro.jobs

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.census.{CensusData, CensusSchema, ConstraintGen}
import repro.core.phase1.ComboSpace
import repro.core.phase2.{ConflictGraph, ImplicitGraph, ListColoring, R1Tuple}

/** Phase II coloring of one B-combo partition as the partition grows:
  * explicit edges + `ListColoring.colorLF` against [[ImplicitGraph]] on the
  * ground truth's combo-0 partition of census (1 area, `S_DC_all`), warm
  * (`spark-submit --class repro.jobs.Phase2Scale [explicit scales] -- [implicit-only scales]`;
  * default 0.6 3 -- 12 36). Prints one row per scale.
  */
object Phase2Scale {

  /** The ground truth's tuples with the B values of combo 0 (sorted by
    * K1), that combo's R2 keys, and the largest R2 key.
    */
  def partition(spark: SparkSession, scale: Double, seed: Long = 7L): (IndexedSeq[R1Tuple], IndexedSeq[Long], Long) = {
    import spark.implicits._
    val schema = CensusSchema.schema
    val (persons, housing) = CensusData.generate(spark, scale, nAreas = 1, seed)
    val space = ComboSpace.build(housing, schema)
    val combo = space.combos.head
    val tuples = persons.join(housing, "hid")
      .filter(schema.r2.attrs.map(a => col(a) === combo.values(a)).reduce(_ && _))
      .select(col("pid"), col("Rel"), col("MultiLing"), col("Age"))
      .as[(Long, String, String, Int)].collect()
      .map { case (pid, rel, ml, age) => R1Tuple(0L, pid, Array(rel, ml), Array(age)) }
      .sortBy(_.key).toIndexedSeq
    (tuples, combo.keys, space.maxKey)
  }

  /** Milliseconds of the second of two runs of `f`, and its result. */
  private def warm[T](f: => T): (Long, T) = {
    f
    val t0 = System.nanoTime()
    val r = f
    ((System.nanoTime() - t0) / 1000000, r)
  }

  def main(args: Array[String]): Unit = {
    val (explicitArgs, implicitArgs) = args.span(_ != "--")
    val explicitScales = if (args.nonEmpty) explicitArgs.map(_.toDouble).toSeq else Seq(0.6, 3.0)
    val implicitScales = if (args.nonEmpty) implicitArgs.drop(1).map(_.toDouble).toSeq else Seq(12.0, 36.0)
    val spark = JobSession.make("phase2scale")
    val compiled = ConflictGraph.compile(ConstraintGen.sdcAll, CensusSchema.schema.r1)
    println("| Scale | Tuples | Palette | Edges | Explicit ms (edges + colorLF) | Implicit ms | Same colors | Fresh keys |")
    println("|---|---|---|---|---|---|---|---|")
    for (scale <- explicitScales ++ implicitScales) {
      val (tuples, palette, maxKey) = partition(spark, scale)
      val (implicitMs, colors) = warm(new ImplicitGraph(compiled, tuples).colorLF(palette, maxKey))
      val fresh = colors.count(_ > maxKey)
      val (edges, explicitMs, same) =
        if (!explicitScales.contains(scale)) ("-", "-", "-")
        else {
          val (ms, (es, explicitColors)) = warm {
            val es = compiled.edges(tuples)
            val fresh = (1 to tuples.size).map(maxKey + _)
            (es, ListColoring.colorLF(tuples.size, es, Map.empty, palette ++ fresh)._1)
          }
          (es.size.toString, ms.toString, tuples.indices.forall(i => explicitColors(i) == colors(i)).toString)
        }
      println(s"| $scale | ${tuples.size} | ${palette.size} | $edges | $explicitMs | $implicitMs | $same | $fresh |")
    }
    spark.stop()
  }
}

package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.TableReports

/** Shared session bootstrap for the spark-submit entrypoints. */
object JobSession {
  def make(name: String): SparkSession = SparkSession.builder()
    .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    .appName(name)
    .config("spark.sql.shuffle.partitions",
            sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .getOrCreate()
}

/** Table 1: data-scale row counts (`spark-submit --class repro.jobs.Table1DataScales`). */
object Table1DataScales {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("table1")
    val scales = if (args.nonEmpty) args.map(_.toDouble).toSeq else TableReports.DefaultScales
    println(TableReports.renderTable1(TableReports.table1Rows(spark, scales)))
    spark.stop()
  }
}

/** Figure 8a: accuracy sweep with `S_DC_all` + `S_CC_good`. */
object Figure8a {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("figure8a")
    val rows = TableReports.figure8Rows(spark, "good")
    println(TableReports.renderAccuracy("Figure 8a (S_DC_all, S_CC_good)", rows))
    spark.stop()
  }
}

/** Figure 8b: accuracy sweep with `S_DC_all` + `S_CC_bad`. */
object Figure8b {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("figure8b")
    val rows = TableReports.figure8Rows(spark, "bad")
    println(TableReports.renderAccuracy("Figure 8b (S_DC_all, S_CC_bad)", rows))
    spark.stop()
  }
}

/** Figure 10: good/bad DC × CC combinations at a fixed scale. */
object Figure10 {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("figure10")
    val rows = TableReports.figure10Rows(spark)
    println(TableReports.renderAccuracy("Figure 10 (good/bad DC x CC at fixed scale)", rows))
    spark.stop()
  }
}

/** Figure 13: hybrid runtime breakdown as the CC count grows. */
object Figure13 {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.make("figure13")
    val rows = TableReports.figure13Rows(spark)
    println(TableReports.renderBreakdown(rows))
    spark.stop()
  }
}

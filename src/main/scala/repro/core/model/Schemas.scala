package repro.core.model

/** Schema description of the fact-side relation `R1(K1, A1..Ap, FK)`.
  *
  * @param key      name of the primary key column `K1` (integral)
  * @param catAttrs categorical (string-valued) non-key attributes
  * @param numAttrs numeric (integer-valued) non-key attributes
  * @param fk       name of the (missing) foreign key column
  */
final case class R1Schema(key: String, catAttrs: Seq[String],
                          numAttrs: Seq[String], fk: String) extends Serializable {
  def attrs: Seq[String] = catAttrs ++ numAttrs
}

/** Schema description of the dimension-side relation `R2(K2, B1..Bq)`.
  *
  * All `B` attributes are categorical — this matches the paper's Housing
  * relation (Tenure, Area, …) and keeps the combo space finite.
  *
  * @param key   name of the primary key column `K2` (integral)
  * @param attrs non-key attributes `B1..Bq`
  */
final case class R2Schema(key: String, attrs: Seq[String]) extends Serializable

/** Database schema pair for a C-Extension instance. */
final case class DbSchema(r1: R1Schema, r2: R2Schema) extends Serializable {
  require(r1.attrs.intersect(r2.attrs).isEmpty, "R1/R2 attribute names must not clash")
}

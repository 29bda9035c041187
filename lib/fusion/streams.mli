(** Stream fusion in the object language (Sec. 5): skipless
    (unfold/destroy) and skip-ful combinator libraries in surface
    syntax, plus the canonical benchmark pipelines. *)

(** Both libraries concatenated. *)
val source : string

(** Compile a pipeline (the body of [main]) against both stream
    libraries and the prelude. *)
val compile_pipeline :
  string -> Fj_core.Datacon.env * Fj_core.Syntax.expr

val sum_map_filter_skipless : int -> string
val sum_map_filter_skipful : int -> string
val sum_map_filter_lists : int -> string
val dot_product_skipless : int -> string
val dot_product_skipful : int -> string
val double_filter_skipless : int -> string
val double_filter_skipful : int -> string

(** Structured static-analysis diagnostics — the currency of
    [fjc check] and the {!Absint} clients.

    A diagnostic names the {e check} that produced it (a stable slug
    like ["jump-arity"] or ["missed-constant-fold"]), a severity, the
    {e site} it is anchored to (an {!Ident.site} provenance label, the
    same binder name hints the profiler and the decision ledger use,
    or ["<top>"] for the program spine), and a human message. A
    missed-optimization diagnostic additionally carries the pipeline
    pass that considered — and declined — the rewrite, together with
    the ledger reason it gave, so every "the analysis can prove this,
    why didn't you?" finding is answerable from the diagnostic alone.

    The JSON form is one element of the [fj-check/1] schema and is
    round-trippable: {!of_json} inverts {!to_json} exactly. *)

type severity = Error | Warning

type t = {
  d_check : string;  (** Stable check slug, e.g. ["jump-arity"]. *)
  d_severity : severity;
  d_site : string;  (** {!Ident.site} label, or ["<top>"]. *)
  d_message : string;
  d_pass : string option;
      (** Missed-opt only: the pipeline pass that declined the
          rewrite, e.g. ["simplify"] — or [None] when no pass ever
          considered the site. *)
  d_reason : string option;
      (** Missed-opt only: the ledger's structured refusal, rendered
          ({!Decision.pp_reason}), e.g. ["size 74 > threshold 60"]. *)
}

(** [error check ~site msg] / [warning check ~site msg]. *)
val error : string -> site:string -> string -> t

val warning : ?pass:string -> ?reason:string -> string -> site:string -> string -> t

val is_error : t -> bool

(** ["error[jump-arity] at j: ..."]. *)
val pp : Format.formatter -> t -> unit

(** [{check, severity, site, message, pass?, reason?}]. *)
val to_json : t -> Telemetry.Json.t

(** Inverse of {!to_json}; [Error] names the offending field. *)
val of_json : Telemetry.Json.t -> (t, string) result

(** Severity split: [(errors, warnings)]. *)
val count : t list -> int * int

(** The escape domain of the kernel evaluator
    ({!Scvad_activity.Eval}): records every flow of checkpoint-variable
    data into a discrete consumer (branch, conversion, subscript,
    comparison, kink) on the [run]/[output] cone, plus the set of fields
    whose taint leaked into code the pass cannot see.

    Conservatism direction: everything unrecognized produces {e more}
    escapes or leaks, never fewer, so an empty escape/leak result for a
    field is evidence toward [Smooth]. *)

type outcome = {
  e_escapes : (Cert.site * Scvad_activity.Eval.SS.t) list;
      (** escape sites with the state fields tainting them, closed over
          the write-edge graph (field-to-field laundering included) *)
  e_leaked : Scvad_activity.Eval.SS.t;
      (** fields whose taint reached an unknown callee (closed) *)
  e_notes : string list;  (** transparency/imprecision notes *)
}

(** Walk [run] then [output].  Raises {!Scvad_activity.Eval.Incomplete}
    when either is missing or fuel runs out. *)
val analyze : Scvad_activity.Model.t -> outcome

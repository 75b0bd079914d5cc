(** The activity domain of the kernel {!Eval}uator: a conservative
    abstract interpretation of a kernel's post-checkpoint cone ([run]
    then [output]).  Produces, per state field:

    - a first-effect status — [Untouched] / [Killed] (fully overwritten
      before any possible read) / [Mayread].  The first two are proofs
      that the checkpointed value is never consumed: branch joins are
      pessimistic and loops join their zero-trip state;
    - membership in the may-influence set of the output (backward
      closure of the walk's edge graph from the synthetic [@output]
      sink);
    - a read footprint: the affine read sites with constant loop
      ranges, or [Top] as soon as any read is unresolvable.

    Unrecognized constructs always degrade toward
    [Mayread]/[Top]/more edges; {!Eval.Incomplete} aborts the app to a
    fully-Unknown verdict. *)

type feffect = Untouched | Killed | Mayread

val feffect_name : feffect -> string

(** base + Σ coeff·v, each v ranging over an inclusive [lo, hi]. *)
type site = { s_base : int; s_terms : (int * int * int) list }

type footprint = Sites of site list | Top

type outcome = {
  o_status : (string * feffect) list;
  o_reaches : Eval.SS.t;
  o_edges : (string * Eval.SS.t) list;
      (** flow-insensitive may-dependence edges, destination to sources,
          sorted by destination and including the synthetic ["@output"]
          sink.  Sources mix state fields with local temporaries; filter
          on {!Model.is_state_field} when only fields matter.  The
          discover pass runs its recomputability fixpoint over these. *)
  o_footprints : (string * footprint) list;
  o_notes : string list;
}

(** Raises {!Eval.Incomplete} when the cone cannot be interpreted at
    all (missing [run]/[output], fuel exhaustion). *)
val analyze : Model.t -> outcome

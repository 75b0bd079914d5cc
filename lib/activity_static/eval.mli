(** The kernel evaluator: one abstract walk of a kernel's
    post-checkpoint cone ([run] then [output]) over the extracted
    {!Model}, written once as a functor over an abstract {!DOMAIN}.

    The walk owns value shapes, pattern binding, closure application
    (labels, partial and over-application, recursion, a depth limit and
    a fuel budget), branch and bounded loop passes, ident and field
    resolution, the {!Effects} table, unknown-callee conservatism and
    the flow-insensitive field edge graph.  The activity pass
    ({!Absint}) and the guard's escape pass are its two domains.

    Conservatism direction: unrecognized constructs produce more reads,
    more edges and more leaks, never fewer. *)

module SS : Set.S with type elt = string
module SM : Map.S with type key = string

(** The cone cannot be interpreted at all (missing [run]/[output],
    fuel exhaustion). *)
exception Incomplete of string

(** An abstract value: the state fields whose data may flow into it, its
    shape, and the domain's annotation. *)
type 'a value = { taint : SS.t; sh : 'a shape; ann : 'a }

and 'a shape =
  | Scalar_sh
  | Field_arr of string  (** handle on an array field of the state *)
  | Local_arr of 'a cell
  | State_sh  (** the state record itself *)
  | Ref_sh of 'a cell
  | Closure_sh of 'a closure

and 'a cell = { mutable c_val : 'a value }

and 'a closure = {
  cl_params : (Asttypes.arg_label * Parsetree.pattern) list;
  cl_body : Parsetree.expression;
  cl_env : 'a value SM.t;
  cl_rec : string option;
}

(** Discrete consumers the walk itself recognizes. *)
type consumer =
  | Branch  (** branch predicate, loop condition or bound, assertion *)
  | Subscript  (** array index or fill bounds *)

(** What boxing a value into an untracked structure (tuple, record,
    constructor) means: [Consume] treats it as a use by opaque code;
    [Hold] lets scalar taint keep flowing in the structure and leaks
    only array handles and the state. *)
type boxing = Consume | Hold

(** Taint reachable through a value, descending refs and local arrays. *)
val deep_taint : 'a value -> SS.t

(** The unlabelled arguments of an application, in order. *)
val positional : (Asttypes.arg_label * 'a) list -> 'a list

module type DOMAIN = sig
  type t  (** per-walk domain state *)

  type ann  (** annotation carried by every value *)

  type snapshot  (** flow-sensitive part of [t] *)

  (** Calls through a non-[Scalar.S] functor parameter resolve against
      the first in-file definition of the same name (noted in the
      walk's notes). *)
  val resolve_functor_params : bool

  val boxing : boxing

  (** Completes the note ["state escaped to <what>: <escape_effect>"]. *)
  val escape_effect : string

  val top : ann
  val int_const : int -> ann
  val const_of : ann -> int option
  val join_ann : ann -> ann -> ann

  (** Annotation of a pure primitive's result, from its unqualified
      name and evaluated arguments. *)
  val pure : string -> (Asttypes.arg_label * ann value) list -> ann

  (** Annotation of a [for] counter, from its bound annotations. *)
  val loop_index : t -> lo:ann -> hi:ann -> Asttypes.direction_flag -> ann

  (** A whole read of a field (scalar read, traversal, opaque use). *)
  val read_all : t -> string -> unit

  (** One element read of an array field at the annotated index. *)
  val read_elem : t -> string -> ann -> unit

  (** Every element of the field is overwritten. *)
  val kill : t -> string -> unit

  (** Taint flowed into code or structure the walk cannot see. *)
  val leak : t -> SS.t -> unit

  (** A value of the given taint feeds a discrete consumer at [loc]
      ([detail] names it, e.g. ["if condition"]). *)
  val discrete : t -> Location.t -> consumer -> string -> SS.t -> unit

  (** An application of a callee this file does not define, by
      unqualified name, before the {!Effects} table interprets it. *)
  val call :
    t -> Location.t -> string -> (Asttypes.arg_label * ann value) list -> unit

  val save : t -> snapshot
  val restore : t -> snapshot -> unit

  (** Merge of two control-flow paths; a loop exit joins the pre-loop
      snapshot, since the body may run zero times. *)
  val join : snapshot -> snapshot -> snapshot
end

(** The domain-independent result of a walk. *)
type walk = {
  model : Model.t;
  edges : (string, SS.t ref) Hashtbl.t;
      (** may-dependence edges, destination to sources, including the
          synthetic ["@output"] sink *)
  notes : string list;  (** transparency/imprecision notes, in order *)
}

(** Backward closure of [seed] over the edge graph, restricted to state
    fields: a field flowing into a member of the closure is a member. *)
val closure : walk -> SS.t -> SS.t

(** The edge graph as a list sorted by destination. *)
val edges : walk -> (string * SS.t) list

module Make (D : DOMAIN) : sig
  (** Walk [run] then [output], the first parameter of each bound to
      the state.  Raises {!Incomplete}. *)
  val walk : D.t -> Model.t -> walk
end

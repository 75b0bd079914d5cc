(** Shared tape vocabulary.

    {!Tape} is the one reverse tape; its signature lives in [tape.mli].
    This module holds what it shares with the edges-only dependence
    tape {!Dep_tape} (8 bytes per node, no partials — the substrate of
    {!Activity} and {!Itaint}): the sweep statistics, the fan-out
    capability, and the {!STORE} and {!DEP} contracts.

    {2 Invariants both tapes keep}

    - {b Node ids are dense}: ids are consecutive ints starting at 0 in
      push order, and a parent id always names a node pushed {e before}
      its child.  This is what makes a single reverse sweep linear.
    - {b Unsafe access after one up-front bounds check}: [backward]
      validates [output] once ([0 <= output < length t], descriptive
      [Invalid_argument] otherwise); the sweep itself may then use
      [unsafe_get]/[unsafe_set], because parent ids are bounded by the
      push-order invariant and node offsets stay inside their slab by
      the uniform-slab-size layout.
    - {b Clear reuses storage}: [clear] drops all recorded nodes but
      retains the allocated storage, so a cleared tape re-records
      without reallocating.  [length] is 0 after [clear]; [capacity]
      is unchanged (or larger, never smaller).
    - {b Constants are id -1}: pushes accept parent id [-1] to mean "no
      parent / constant"; [adjoint] (resp. [reachable]) returns 0
      (resp. [false]) for negative ids. *)

(** Statistics of the most recent backward sweep.

    [visited_nodes] counts the nodes at or below the output whose
    adjoint (resp. reach mark) is nonzero — the nodes that actually
    propagated, parentless input leaves included.  [swept_nodes] is
    the size of the sweep range ([output + 1]); the gap between the
    two is the work a sparsity-aware sweep avoids.  Both counts are determined by the
    recorded values alone, so they are identical across sequential and
    parallel sweeps of the same tape. *)
type sweep_stats = { visited_nodes : int; swept_nodes : int }

(** Parallel fan-out capability, injected by the caller.

    [fan_run f xs] maps [f] over [xs], possibly concurrently, and
    returns the results in input order.  A record with a polymorphic
    field rather than a functor argument so that the tapes need no
    compile-time dependency on any particular pool implementation. *)
type fan = { fan_run : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }

(** Shared storage and lifecycle contract. *)
module type STORE = sig
  type t

  (** Number of nodes currently recorded. *)
  val length : t -> int

  (** Currently reserved node slots (storage, not recording length). *)
  val capacity : t -> int

  (** Drop all nodes; allocated storage is retained for reuse. *)
  val clear : t -> unit

  (** New independent (input) variable: a parentless node; returns its
      id. *)
  val fresh_var : t -> int
end

(** Edges-only dependence tape: no partials; a backward sweep computes
    reverse reachability (a zero-valued partial still counts as a
    dependence). *)
module type DEP = sig
  include STORE

  (** Unary dependence node. *)
  val push1 : t -> int -> int

  (** Binary dependence node. *)
  val push2 : t -> int -> int -> int

  type reach

  (** Reverse reachability from [output], one linear pass.  Raises a
      descriptive [Invalid_argument] when [output] is not on the
      tape. *)
  val backward : t -> output:int -> reach

  (** Is the node in the output's dependence cone? *)
  val reachable : reach -> int -> bool

  (** Statistics of the most recent [backward]; [None] before the
      first sweep.  [visited_nodes] counts marked (propagating)
      nodes. *)
  val last_sweep : t -> sweep_stats option
end

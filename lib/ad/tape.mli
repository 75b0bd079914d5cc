(** Compact reverse-mode tape.

    The tape is an append-only record of the data-flow graph of a program
    execution: one node per arithmetic operation, each with at most two
    parent nodes and the local partial derivatives towards them.  Storage
    is Bigarray-backed (24 bytes per node) and chunked into equally sized
    slabs, so large kernels — tens of millions of nodes — stay off the
    OCaml heap and growth never copies recorded nodes.

    There is one tape, and a memory budget only decides which of its
    nodes are stored and which are replayed:

    - {!create} makes an unbounded tape, the dense case: every slab is
      kept, nothing is snapshotted or replayed, and one backward sweep
      covers the whole tape.
    - {!Segmented.create} makes a budgeted tape.  Recording materializes
      at most [budget_nodes] worth of trailing slabs; older slabs are
      discarded once a primal snapshot can rebuild them.  The program
      registers two hooks with {!set_program} and marks each step
      boundary with {!start_segment}; the backward sweep then proceeds
      over slab windows top-down, replaying the program from the
      nearest snapshot to rematerialize each discarded window
      (Siskind–Pearlmutter binomial checkpointing applied to the
      scrutiny tape).

    Replay must be deterministic — re-pushed nodes must land on their
    recorded ids.  Watermark checks at every segment boundary raise
    [Failure] on divergence rather than produce wrong adjoints.

    Once a program is registered, nodes pushed before the first
    [start_segment] form the prelude (input lifting): they are never
    replayed, so they must be parentless; a non-constant prelude push
    raises [Invalid_argument].

    The budget bounds tape node storage (24 bytes per slot, rounded to
    whole slabs).  The adjoint accumulator of a backward sweep is dense
    regardless — adjoint edges cross segment boundaries — and costs 8
    bytes per node up to the output.

    {!Reverse} provides the operator-overloading front end; most users
    never call [push1]/[push2] directly. *)

type t

(** Recompute-vs-store schedule of a budgeted tape.

    - [Binomial] (default): keep boundary snapshots at a stride that
      doubles whenever the slots fill, plus re-snapshotting at
      binomial-optimal split points during each backward replay pass.
    - [Planned bs]: snapshot exactly at the precomputed boundary
      indices [bs] (strictly increasing, starting at 0) — the output of
      a static cost model that knew the per-segment node counts before
      recording began.  Recording-time snapshots are never evicted;
      replay passes still re-capture binomially into any free slots.
      [Segmented.create] raises [Invalid_argument] on an empty,
      unsorted, or non-zero-based plan. *)
type schedule = Binomial | Planned of int list

val schedule_to_string : schedule -> string

(** [budget_of_string s] parses a node count with an optional k/M/G
    suffix (1e3/1e6/1e9): ["500000"], ["500k"], ["6M"], ["1.5k"].  The
    count must be finite and between 1 and [Int32.max_int]: slabs store
    parent ids as [int32], so a larger budget could never bind. *)
val budget_of_string : string -> (int, string) result

(** [create ?capacity_hint ()] makes an empty unbounded tape whose
    slabs each hold [max capacity_hint 16] nodes — hints below 16 are
    explicitly clamped up to 16, the smallest slab worth allocating.
    Negative hints raise [Invalid_argument].  A hint covering the whole
    recording (e.g. [App.S.tape_nodes_hint]) means exactly one slab is
    ever allocated; an underestimate only adds further slabs of the same
    size — recorded nodes are never copied. *)
val create : ?capacity_hint:int -> unit -> t

include Tape_intf.STORE with type t := t

(** [push1 t p dp] appends a unary node with parent [p] and local
    partial [dp]; returns the node id. *)
val push1 : t -> int -> float -> int

(** [push2 t l dl r dr] appends a binary node. *)
val push2 : t -> int -> float -> int -> float -> int

(** Nodes per storage slab (the granularity of growth and of replay). *)
val slab_nodes : t -> int

(** Register the replay hooks; must be called before any push.
    [capture ()] snapshots restart state at the current boundary and
    returns the thunk that restores it; [replay_step s] re-executes
    segment [s] (the program between boundaries [s] and [s+1],
    re-pushing the same nodes).  An unbounded tape never calls either
    hook. *)
val set_program :
  t -> capture:(unit -> unit -> unit) -> replay_step:(int -> unit) -> unit

(** Mark a program-step boundary.  The first call ends the prelude; a
    budgeted tape takes snapshots here per its schedule. *)
val start_segment : t -> unit

(** Result of a backward sweep. *)
type adjoints

(** [backward t ~output] runs one reverse sweep seeded with
    [d output / d output = 1] and returns the adjoint of every node at
    or below [output].  Raises a descriptive [Invalid_argument] when
    [output] is not a recorded node — the one bounds check that
    licenses the unsafe sweep.

    The sweep is sparsity-aware: only nodes whose adjoint became
    nonzero are visited, and the result is bitwise identical to a dense
    descending scan (same nodes inspected in the same order, so the
    same floating-point additions in the same order).  When [?fan] is
    given, independent slabs of the sweep fan out through it; results
    remain bitwise identical to the sequential sweep at any
    parallelism.  A budgeted tape replays discarded windows on the way
    down.

    The accumulator is cached on the tape across sweeps (cleared
    frontier-wise, not re-zeroed wholesale), so a later [backward]
    invalidates previously returned [adjoints]: read gradients before
    sweeping again.  A budgeted tape supports one [backward] per
    recording. *)
val backward : ?fan:Tape_intf.fan -> t -> output:int -> adjoints

(** [adjoint g id] is [d output / d node]; 0 for constants ([id < 0])
    and for nodes recorded after the output. *)
val adjoint : adjoints -> int -> float

(** Statistics of the most recent [backward] on this tape; [None]
    before the first sweep.  [visited_nodes] is the same count at every
    budget and every [?fan]. *)
val last_sweep : t -> Tape_intf.sweep_stats option

type stats = {
  s_slab_nodes : int;
  s_total_nodes : int;  (** recording length *)
  s_segments : int;  (** [start_segment] boundaries *)
  s_snapshots : int;  (** snapshots taken, including replay-time *)
  s_replays : int;  (** replay passes during [backward] *)
  s_replayed_nodes : int;  (** nodes re-pushed by those passes *)
  s_peak_live_nodes : int;  (** peak materialized node slots *)
}

val stats : t -> stats

(** The budgeted constructor, with the names the benchmark's rebuilt
    pipeline ([perfbench/rebuild.ml]) compiles against. *)
module Segmented : sig
  type nonrec t = t
  type nonrec schedule = schedule = Binomial | Planned of int list

  type nonrec stats = stats = {
    s_slab_nodes : int;
    s_total_nodes : int;
    s_segments : int;
    s_snapshots : int;
    s_replays : int;
    s_replayed_nodes : int;
    s_peak_live_nodes : int;
  }

  (** [create ~budget_nodes ()] makes an empty budgeted tape that
      materializes at most [budget_nodes] node slots (rounded down to
      whole slabs, at least one slab).  [slab_nodes] defaults to
      [max 16 (min 65536 (budget_nodes / 8))]; explicit values below 16
      raise [Invalid_argument], as do non-positive [budget_nodes] or
      [snapshot_slots]. *)
  val create :
    ?slab_nodes:int ->
    ?snapshot_slots:int ->
    ?schedule:schedule ->
    budget_nodes:int ->
    unit ->
    t

  val set_program :
    t -> capture:(unit -> unit -> unit) -> replay_step:(int -> unit) -> unit

  val start_segment : t -> unit
  val stats : t -> stats
  val last_sweep : t -> Tape_intf.sweep_stats option
end

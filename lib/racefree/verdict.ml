(* Per-fan-out-site verdicts: the product of the race-freedom pass.

   The three-valued verdict follows the repo's certification idiom
   (activity: inactive / active / unknown; guard: smooth / tainted /
   unknown): prove it, show the counterexample, or say [Unknown] and
   list exactly what could not be established — never guess.  A fourth
   state, [Assumed], marks sites a [(* racefree: assume disjoint … *)]
   pragma justifies; the @race-check gate treats it as classified but
   the report keeps the assumption visible. *)

type site_kind =
  | Map  (** [Pool.map] — shards are list elements *)
  | Init  (** [Pool.init] — shards are indices [0 .. n-1] *)

let site_kind_name = function Map -> "map" | Init -> "init"

let site_kind_of_name = function
  | "map" -> Some Map
  | "init" -> Some Init
  | _ -> None

(* One syntactic fan-out point: a [Pool.map]/[Pool.init] application in
   the scanned tree, keyed by position, named by its enclosing
   top-level binding (the pragma subject, stable across line drift). *)
type site = {
  st_file : string;
  st_line : int;
  st_kind : site_kind;
  st_context : string;  (** enclosing top-level binding, e.g. ["fan"] *)
}

let site_key s = Printf.sprintf "%s:%d" s.st_file s.st_line

let site_to_text s =
  Printf.sprintf "%s:%d Pool.%s in %s" s.st_file s.st_line
    (site_kind_name s.st_kind) s.st_context

(* One closure that flows into a site, with where it is defined and
   which entry point drove it there. *)
type flow = {
  fl_def_file : string;
  fl_def_line : int;
  fl_via : string;  (** entry chain, e.g. ["gradient_analysis"] *)
  fl_summary : Effects.summary;
}

let flow_origin f = Printf.sprintf "%s:%d" f.fl_def_file f.fl_def_line

type proof = {
  p_fresh : int;  (** write sites that land in per-shard allocations *)
  p_shard : int;  (** write sites on the shard's own datum *)
  p_affine : (string * Disjoint.outcome) list;
      (** captured targets proven lane-disjoint, by target *)
  p_premises : string list;
}

(* A definite write to captured state, racing with its counterpart in
   every other shard. *)
type shared = { sh_site : string; sh_what : string }

type verdict =
  | Race_free of proof
  | Assumed of string  (** pragma justification *)
  | Shared_write of shared list
  | Unknown of string list  (** unmet obligations *)

let verdict_name = function
  | Race_free _ -> "race-free"
  | Assumed _ -> "assumed"
  | Shared_write _ -> "shared-write"
  | Unknown _ -> "unknown"

(* Severity order for folding multiple closure flows into one site
   verdict: a single bad flow taints the site. *)
let rank = function
  | Shared_write _ -> 3
  | Unknown _ -> 2
  | Assumed _ -> 1
  | Race_free _ -> 0

let worse a b = if rank a >= rank b then a else b

type classified = { c_site : site; c_flows : flow list; c_verdict : verdict }

let gate_ok (c : classified) =
  match c.c_verdict with
  | Race_free _ | Assumed _ -> true
  | Shared_write _ | Unknown _ -> false

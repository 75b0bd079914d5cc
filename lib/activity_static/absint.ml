(* The activity domain of the kernel {!Eval}uator.  Over the walk's
   edge graph it computes:

   - a per-field *first-effect* status (the kill-before-read lattice):
     [Untouched] (never observed), [Killed] (fully overwritten before
     any read — EP's [buffer] under [vranlc]), [Mayread] (a read may
     observe the checkpointed value).  Branches join pessimistically
     and loops join the pre-loop state (zero trips), so
     [Killed]/[Untouched] are *proofs* of non-consumption;
   - the may-influence set: the backward closure of the edge graph from
     the synthetic [@output] sink;
   - per-field read *footprints*: every array read resolved to an index
     expression affine in constant-range loop counters (the value
     annotation), or [Top] when any read is unresolvable
     (data-dependent subscripts, unknown bounds). *)

module SS = Eval.SS
module SM = Eval.SM

type feffect = Untouched | Killed | Mayread

let feffect_name = function
  | Untouched -> "untouched"
  | Killed -> "killed"
  | Mayread -> "may-read"

(* A resolved affine read site: base + Σ coeff·v over loop counters
   with inclusive ranges. *)
type site = { s_base : int; s_terms : (int * int * int) list }

type footprint = Sites of site list | Top

type iexpr =
  | Const of int
  | Affine of int * (int * int) list  (* base, (loop-var id, coeff) *)
  | Iunknown

(* ---- affine arithmetic ----------------------------------------------- *)

let norm_terms terms =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (id, c) ->
      let prev = match Hashtbl.find_opt tbl id with Some p -> p | None -> 0 in
      Hashtbl.replace tbl id (prev + c))
    terms;
  Hashtbl.fold (fun id c acc -> if c = 0 then acc else (id, c) :: acc) tbl []
  |> List.sort compare

let iadd a b =
  match (a, b) with
  | Const x, Const y -> Const (x + y)
  | Const x, Affine (base, ts) | Affine (base, ts), Const x ->
      Affine (base + x, ts)
  | Affine (b1, t1), Affine (b2, t2) -> (
      match norm_terms (t1 @ t2) with
      | [] -> Const (b1 + b2)
      | ts -> Affine (b1 + b2, ts))
  | _ -> Iunknown

let ineg = function
  | Const x -> Const (-x)
  | Affine (base, ts) -> Affine (-base, List.map (fun (id, c) -> (id, -c)) ts)
  | Iunknown -> Iunknown

let isub a b = iadd a (ineg b)

let imul a b =
  match (a, b) with
  | Const x, Const y -> Const (x * y)
  | Const k, Affine (base, ts) | Affine (base, ts), Const k ->
      if k = 0 then Const 0
      else Affine (base * k, List.map (fun (id, c) -> (id, c * k)) ts)
  | _ -> Iunknown

let ishift a b =
  match (a, b) with
  | _, Const k when k < 0 || k > 30 -> Iunknown
  | _, Const k -> imul a (Const (1 lsl k))
  | _ -> Iunknown

(* ---- the domain ------------------------------------------------------ *)

module Domain = struct
  type t = {
    mutable status : feffect SM.t;
    ranges : (int, int * int) Hashtbl.t;  (* loop-var id -> inclusive range *)
    sites : (string, site list ref) Hashtbl.t;
    tops : (string, unit) Hashtbl.t;
    mutable next_id : int;
  }

  type ann = iexpr
  type snapshot = feffect SM.t

  (* Functor-parameter bodies stay opaque: the first in-file definition
     of a name need not be the implementation passed in. *)
  let resolve_functor_params = false
  let boxing = Eval.Consume
  let escape_effect = "all fields conservative"
  let top = Iunknown
  let int_const n = Const n
  let const_of = function Const n -> Some n | Affine _ | Iunknown -> None
  let join_ann a b = if a = b then a else Iunknown

  let pure name vals =
    match (name, Eval.positional vals) with
    | "+", [ a; b ] -> iadd a.Eval.ann b.Eval.ann
    | "-", [ a; b ] -> isub a.Eval.ann b.Eval.ann
    | "*", [ a; b ] -> imul a.Eval.ann b.Eval.ann
    | "lsl", [ a; b ] -> ishift a.Eval.ann b.Eval.ann
    | "~-", [ a ] -> ineg a.Eval.ann
    | ("min" | "max"), [ a; b ] -> (
        match (a.Eval.ann, b.Eval.ann) with
        | Const x, Const y -> Const (if name = "min" then min x y else max x y)
        | _ -> Iunknown)
    | _ -> Iunknown

  let loop_index st ~lo ~hi dir =
    match (lo, hi) with
    | Const a, Const b ->
        let lo, hi =
          match dir with Asttypes.Upto -> (a, b) | Downto -> (b, a)
        in
        let id = st.next_id in
        st.next_id <- id + 1;
        Hashtbl.replace st.ranges id (lo, hi);
        Affine (0, [ (id, 1) ])
    | _ -> Iunknown

  let read_field st f =
    match SM.find_opt f st.status with
    | Some Untouched -> st.status <- SM.add f Mayread st.status
    | _ -> ()

  let read_all st f =
    read_field st f;
    Hashtbl.replace st.tops f ()

  let read_elem st f ie =
    read_field st f;
    if not (Hashtbl.mem st.tops f) then
      let resolved =
        match ie with
        | Const c -> Some { s_base = c; s_terms = [] }
        | Affine (base, terms) ->
            List.fold_left
              (fun acc (id, coeff) ->
                match (acc, Hashtbl.find_opt st.ranges id) with
                | Some site, Some (lo, hi) ->
                    Some { site with s_terms = (coeff, lo, hi) :: site.s_terms }
                | _ -> None)
              (Some { s_base = base; s_terms = [] })
              terms
        | Iunknown -> None
      in
      match resolved with
      | Some site -> (
          match Hashtbl.find_opt st.sites f with
          | Some r -> r := site :: !r
          | None -> Hashtbl.add st.sites f (ref [ site ]))
      | None -> Hashtbl.replace st.tops f ()

  let kill st f =
    match SM.find_opt f st.status with
    | Some Untouched -> st.status <- SM.add f Killed st.status
    | _ -> ()

  let leak _ _ = ()
  let discrete _ _ _ _ _ = ()
  let call _ _ _ _ = ()
  let save st = st.status
  let restore st s = st.status <- s

  let join a b =
    SM.merge
      (fun _ sa sb ->
        match (sa, sb) with
        | Some Mayread, _ | _, Some Mayread -> Some Mayread
        | Some Killed, Some Killed -> Some Killed
        | _ -> Some Untouched)
      a b
end

module Walk = Eval.Make (Domain)

(* ---- entry ----------------------------------------------------------- *)

type outcome = {
  o_status : (string * feffect) list;
  o_reaches : SS.t;  (** fields with a may-dependence path to output *)
  o_edges : (string * SS.t) list;
  o_footprints : (string * footprint) list;
  o_notes : string list;
}

let analyze (model : Model.t) : outcome =
  let st =
    {
      Domain.status =
        Hashtbl.fold
          (fun f _ acc -> SM.add f Untouched acc)
          model.Model.fields SM.empty;
      ranges = Hashtbl.create 32;
      sites = Hashtbl.create 8;
      tops = Hashtbl.create 8;
      next_id = 0;
    }
  in
  let w = Walk.walk st model in
  let footprints =
    Hashtbl.fold
      (fun f _ acc ->
        if Hashtbl.mem st.Domain.tops f then (f, Top) :: acc
        else
          match Hashtbl.find_opt st.Domain.sites f with
          | Some sites -> (f, Sites !sites) :: acc
          | None -> (f, Sites []) :: acc)
      model.Model.fields []
  in
  {
    o_status = SM.bindings st.Domain.status;
    o_reaches = Eval.closure w (SS.singleton "@output");
    o_edges = Eval.edges w;
    o_footprints = footprints;
    o_notes = w.Eval.notes;
  }

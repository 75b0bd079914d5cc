(* The escape domain of the kernel evaluator
   ({!Scvad_activity.Eval}).  Activity asks "can this value reach the
   output at all?"; the guard asks "can this value reach the output
   through NON-SMOOTH dataflow?" — a branch predicate, an integer
   conversion, an array subscript, a comparison, or a kink.  Each such
   flow is recorded as a {!Cert.site} with the source location and the
   set of state fields tainting it.

   Two companion facts come with the walk:

   - its field edge graph, so a taint that is laundered through another
     field ([g <- f(x); if g > 0 ...]) still reaches the escape after
     backward closure;
   - a leak set: fields whose taint flowed into a callee the pass
     cannot see (an external solver, an unresolvable construct).
     Leaked fields can never be certified [Smooth] — the unseen code
     could compare them — only [Unknown], pending a pragma. *)

module Eval = Scvad_activity.Eval
module SS = Eval.SS

module Domain = struct
  type t = {
    escapes : (int * Cert.escape_kind * string, SS.t ref) Hashtbl.t;
        (* (line, kind, detail) -> tainting fields; loop passes merge *)
    mutable leaked : SS.t;
  }

  type ann = unit
  type snapshot = unit

  (* Calls through a non-Scalar functor parameter are interpreted
     against the in-file implementation: its body carries the real
     escape sites (IS's [O : INT_OPS] resolves to [Plain_ops]). *)
  let resolve_functor_params = true
  let boxing = Eval.Hold
  let escape_effect = "all fields leak"
  let top = ()
  let int_const _ = ()
  let const_of () = None
  let join_ann () () = ()
  let pure _ _ = ()
  let loop_index _ ~lo:() ~hi:() _ = ()
  let read_all _ _ = ()
  let read_elem _ _ () = ()
  let kill _ _ = ()
  let leak st taint = st.leaked <- SS.union st.leaked taint

  let record st (loc : Location.t) kind detail taint =
    if not (SS.is_empty taint) then begin
      let key = (loc.loc_start.Lexing.pos_lnum, kind, detail) in
      match Hashtbl.find_opt st.escapes key with
      | Some r -> r := SS.union !r taint
      | None -> Hashtbl.add st.escapes key (ref taint)
    end

  let discrete st loc consumer detail taint =
    let kind =
      match consumer with
      | Eval.Branch -> Cert.Branch
      | Eval.Subscript -> Cert.Subscript
    in
    record st loc kind detail taint

  (* Discrete-consumer interception comes before the effects table:
     most of the vocabulary classifies as Pure, and purity is exactly
     what hides the escape from the activity pass. *)
  let call st loc name vals =
    match Escapes.classify name with
    | Some kind ->
        record st loc kind name
          (List.fold_left
             (fun acc (_, v) -> SS.union acc (Eval.deep_taint v))
             SS.empty vals)
    | None -> ()

  let save _ = ()
  let restore _ () = ()
  let join () () = ()
end

module Walk = Eval.Make (Domain)

type outcome = {
  e_escapes : (Cert.site * SS.t) list;
      (** escape sites with their (closed) tainting field sets *)
  e_leaked : SS.t;  (** fields whose (closed) taint reached unseen code *)
  e_notes : string list;
}

let analyze (model : Scvad_activity.Model.t) : outcome =
  let st = { Domain.escapes = Hashtbl.create 32; leaked = SS.empty } in
  let w = Walk.walk st model in
  let escapes =
    Hashtbl.fold
      (fun (line, kind, detail) taint acc ->
        ( {
            Cert.s_file = model.Scvad_activity.Model.file;
            s_line = line;
            s_kind = kind;
            s_detail = detail;
          },
          Eval.closure w !taint )
        :: acc)
      st.Domain.escapes []
    |> List.sort (fun ((a : Cert.site), _) (b, _) ->
           compare (a.Cert.s_line, a.Cert.s_kind, a.Cert.s_detail)
             (b.Cert.s_line, b.Cert.s_kind, b.Cert.s_detail))
  in
  {
    e_escapes = escapes;
    e_leaked = Eval.closure w st.Domain.leaked;
    e_notes = w.Eval.notes;
  }

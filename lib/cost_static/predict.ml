(* Per-app node-count prediction: drive an interpreted kernel through
   exactly the protocol `Analyzer.gradient_analysis` uses (run to the
   checkpoint boundary, lift every element of every checkpoint
   variable, run the analyzed window, evaluate the output) and read the
   counting scalar instead of a tape.

   The per-iteration split mirrors the tape's segments: segment costs
   come out for free, and summing them reproduces the dense total
   because every kernel's [run ~from ~until] is literally a loop over
   iterations. *)

open Value

type var_lift = {
  lv_name : string;
  lv_scalars : int;  (** elements × slots *)
  lv_lifted : int;  (** fresh constants pushed by the lift *)
}

type t = {
  p_app : string;
  p_hint : int;  (** committed [tape_nodes_hint] *)
  p_analysis_niter : int;
  p_at_iter : int;
  p_lift : int;
  p_vars : var_lift list;
  p_segments : int array;  (** nodes per analyzed iteration *)
  p_output : int;
  p_total : int;
}

let member m n =
  match Hashtbl.find_opt m n with
  | Some c -> !c
  | None -> err "missing module member %s" n

(* Reverse.lift pushes one fresh node per still-constant scalar and
   leaves already-active ones alone; either way the element is active
   afterwards with its primal preserved. *)
let lift_var counter var =
  match var with
  | Vrec fields ->
      let name = as_str !(rec_field fields "name") in
      let elements = as_int !(rec_field fields "elements") in
      let spe = as_int !(rec_field fields "spe") in
      let get = !(rec_field fields "get") in
      let set = !(rec_field fields "set") in
      let lifted = ref 0 in
      for e = 0 to elements - 1 do
        for k = 0 to spe - 1 do
          let s = as_sc (apply2 get (Vint e) (Vint k)) in
          if not s.act then begin
            incr counter;
            incr lifted
          end;
          ignore
            (apply set
               [
                 (Asttypes.Nolabel, Vint e);
                 (Asttypes.Nolabel, Vint k);
                 (Asttypes.Nolabel, Vsc { act = true; v = s.v });
               ])
        done
      done;
      { lv_name = name; lv_scalars = elements * spe; lv_lifted = !lifted }
  | v -> err "float_vars entry is %s, not a variable" (type_name v)

(* The analyzer protocol against an instantiated kernel module. *)
let run_protocol ~counter ~(inst : modl) ~at_iter ~niter =
  let m n = member inst n in
  let st = apply1 (m "create") Vunit in
  let run_fn = m "run" in
  let run a b =
    ignore
      (apply run_fn
         [
           (Asttypes.Nolabel, st);
           (Asttypes.Labelled "from", Vint a);
           (Asttypes.Labelled "until", Vint b);
         ])
  in
  run 0 at_iter;
  let c0 = !counter in
  let vars = as_list (apply1 (m "float_vars") st) in
  let lifts = List.map (lift_var counter) vars in
  let lift = !counter - c0 in
  let segments =
    Array.init (niter - at_iter) (fun i ->
        let s = at_iter + i in
        let c = !counter in
        run s (s + 1);
        !counter - c)
  in
  let c = !counter in
  ignore (apply1 (m "output") st);
  let output = !counter - c in
  (lift, lifts, segments, output)

let predict ?(at_iter = 0) ?niter (world : World.t) (app : modl) : t =
  let counter = world.prims.Prims.pushes in
  let name = as_str (member app "name") in
  let hint = as_int (member app "tape_nodes_hint") in
  let niter =
    match niter with
    | Some n -> n
    | None -> as_int (member app "analysis_niter")
  in
  let inst =
    as_mod (Interp.apply_functor (member app "Make") [ world.prims.Prims.scalar ])
  in
  let lift, vars, segments, output =
    run_protocol ~counter ~inst ~at_iter ~niter
  in
  {
    p_app = name;
    p_hint = hint;
    p_analysis_niter = niter;
    p_at_iter = at_iter;
    p_lift = lift;
    p_vars = vars;
    p_segments = segments;
    p_output = output;
    p_total = lift + Array.fold_left ( + ) 0 segments + output;
  }

(* Instantiate an ADI-family kernel (`Make_sized (G) (S)`) at an
   arbitrary grid size — including sizes the repository never compiled
   — and measure its node counts.  This is what the polynomial fit
   samples. *)
let predict_sized (world : World.t) ~file ~grid ~niter : int =
  match List.assoc_opt file world.npb_mods with
  | None -> err "no such kernel file %s" file
  | Some file_mod ->
      let counter = world.prims.Prims.pushes in
      let g : modl = Hashtbl.create 1 in
      Hashtbl.replace g "grid" (ref (Vint grid));
      let inst =
        as_mod
          (Interp.apply_functor
             (member file_mod "Make_sized")
             [ Vmod g; world.prims.Prims.scalar ])
      in
      let lift, _, segments, output =
        run_protocol ~counter ~inst ~at_iter:0 ~niter
      in
      lift + Array.fold_left ( + ) 0 segments + output

(* The steps of [Analyzer] and [Harness], rebuilt from the same public
   functions with a span around every call into a layer.

   The traced run executes these instead of the library's entry points,
   so it can see where the time of each app operation goes without a
   line of tracing inside lib/.  Each rebuild must reproduce the entry
   point it mirrors bitwise — the workloads compare masks, tape sizes
   and outputs against the untraced results — so any drift between the
   library and this copy fails the run instead of silently measuring
   something else. *)

open Scvad_ad
open Scvad_core
module Store = Scvad_checkpoint.Store

let span = Trace.span
let count = Trace.count

(* Per-variable mask, magnitude and region extraction, fanned out like
   the analyzer's (sequential without a pool).  The impact report is
   built, as the analyzer builds it, and dropped: [Analyzer.run] does
   not return it either. *)
let extract map snapshots grad =
  span "core.extract" (fun () ->
      map
        (fun ((v : 'a Variable.t), snapshot) ->
          let name = v.Variable.name
          and shape = v.Variable.shape
          and spe = v.Variable.spe in
          let mask, magnitudes =
            Variable.mask_and_magnitudes_of_snapshot v snapshot grad
          in
          ignore
            (Sys.opaque_identity
               (Impact.of_magnitudes ~name ~shape ~spe magnitudes));
          Criticality.of_mask ~name ~shape ~spe ~kind:Criticality.Float_var
            mask)
        snapshots)

(* Integer criticality: declared, or answered by the app's integer
   dependence tape (IS). *)
let int_reports (module A : App.S) (int_vars : Variable.int_t list) =
  let taint =
    span "ad.dep_tape" (fun () ->
        match A.int_taint_masks with Some f -> f () | None -> [])
  in
  span "core.extract" (fun () ->
      List.map
        (fun (iv : Variable.int_t) ->
          let n = Variable.int_elements iv in
          let mask =
            match iv.Variable.icrit with
            | Variable.Always_critical _ -> Array.make n true
            | Variable.By_taint -> (
                match List.assoc_opt iv.Variable.iname taint with
                | Some m when Array.length m = n -> m
                | Some _ | None -> Array.make n true)
          in
          Criticality.of_mask ~name:iv.Variable.iname ~shape:iv.Variable.ishape
            ~spe:1 ~kind:Criticality.Int_var mask)
        int_vars)

let count_regions reports =
  List.iter
    (fun (r : Criticality.var_report) ->
      count "core.regions"
        (float_of_int
           (Scvad_checkpoint.Regions.count_regions r.Criticality.regions)))
    reports

let count_sweep (last : Tape_intf.sweep_stats option) =
  Option.iter
    (fun (s : Tape_intf.sweep_stats) ->
      count "ad.visited_nodes" (float_of_int s.Tape_intf.visited_nodes);
      count "ad.swept_nodes" (float_of_int s.Tape_intf.swept_nodes))
    last

(* What a rebuilt analysis produced: every variable's report, in the
   analyzer's order (floats, then ints), and the recording length. *)
type analysis = { vars : Criticality.var_report list; tape_nodes : int }

(* [Analyzer.run] with the default config: the dense tape, boundary 0,
   the app's analysis window, jobs = 1. *)
let dense_analysis (module A : App.S) =
  let at_iter = 0 and niter = A.analysis_niter in
  let tape =
    span "ad.record" (fun () ->
        Tape.create ~capacity_hint:A.tape_nodes_hint ())
  in
  let module RS = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  let module I = A.Make (RS) in
  let state = span "npb.state" I.create in
  let snapshots, out =
    span "ad.record" (fun () ->
        I.run state ~from:0 ~until:at_iter;
        let snapshots =
          List.map
            (fun (v : RS.t Variable.t) ->
              (v, Variable.lift_capture v (Reverse.lift tape)))
            (I.float_vars state)
        in
        I.run state ~from:at_iter ~until:niter;
        (snapshots, I.output state))
  in
  let g = span "ad.backward" (fun () -> Reverse.backward tape out) in
  let floats = extract List.map snapshots (Reverse.grad g) in
  let ints = int_reports (module A) (I.int_vars state) in
  count "ad.tape_nodes" (float_of_int (Tape.length tape));
  count_sweep (Tape.last_sweep tape);
  count_regions (floats @ ints);
  { vars = floats @ ints; tape_nodes = Tape.length tape }

(* [Analyzer.run] under [memory_budget] with the default [Binomial]
   schedule: the segmented tape, whose capture and replay hooks are the
   benchmark's own closures (spans [ad.capture] and [ad.replay]), and
   whose fan-out, given a pool (jobs > 1), is {!Trace.fan}. *)
let segmented_analysis ?pool ~budget_nodes (module A : App.S) =
  let at_iter = 0 and niter = A.analysis_niter in
  let module T = Tape.Segmented in
  let fan = Option.map Trace.fan pool in
  let tape =
    span "ad.record" (fun () ->
        T.create ~schedule:T.Binomial ~budget_nodes ())
  in
  let module RS = Reverse.Segmented.Scalar_of (struct
    let tape = tape
  end) in
  let module I = A.Make (RS) in
  let state = span "npb.state" I.create in
  let nsteps = niter - at_iter in
  let out = ref (Reverse.const 0.) in
  let step s =
    I.run state ~from:(at_iter + s) ~until:(at_iter + s + 1);
    if s = nsteps - 1 then out := I.output state
  in
  let capture () =
    span "ad.capture" (fun () ->
        let fs =
          List.map (fun v -> (v, Variable.snapshot v)) (I.float_vars state)
        in
        let is =
          List.map (fun v -> (v, Variable.int_snapshot v)) (I.int_vars state)
        in
        fun () ->
          span "ad.capture" (fun () ->
              List.iter (fun (v, s) -> Variable.restore v s) fs;
              List.iter (fun (v, s) -> Variable.int_restore v s) is))
  in
  T.set_program tape ~capture ~replay_step:(fun s ->
      span "ad.replay" (fun () -> step s));
  let snapshots =
    span "ad.record" (fun () ->
        I.run state ~from:0 ~until:at_iter;
        let snapshots =
          List.map
            (fun (v : RS.t Variable.t) ->
              (v, Variable.lift_capture v (Reverse.Segmented.lift tape)))
            (I.float_vars state)
        in
        for s = 0 to nsteps - 1 do
          T.start_segment tape;
          step s
        done;
        snapshots)
  in
  let ints = int_reports (module A) (I.int_vars state) in
  let g =
    span "ad.backward" (fun () -> Reverse.Segmented.backward ?fan tape !out)
  in
  let map =
    match fan with Some f -> f.Tape_intf.fan_run | None -> List.map
  in
  let floats = extract map snapshots (Reverse.Segmented.grad g) in
  let st = T.stats tape in
  count "ad.tape_nodes" (float_of_int st.T.s_total_nodes);
  count "ad.replays" (float_of_int st.T.s_replays);
  count "ad.replayed_nodes" (float_of_int st.T.s_replayed_nodes);
  Trace.maximum "ad.peak_live_nodes" (float_of_int st.T.s_peak_live_nodes);
  count_sweep (T.last_sweep tape);
  count_regions (floats @ ints);
  { vars = floats @ ints; tape_nodes = st.T.s_total_nodes }

(* [Harness.run_with_checkpoints ~every:1 ~crash_at:(niter - 1)]: a
   pruned checkpoint after every iteration, and the crash strikes while
   the last iteration runs, before anything is saved for it. *)
let protected_run ~report ~store (module A : App.S) =
  let niter = A.default_niter in
  let crash_at = niter - 1 in
  let module I = A.Make (Float_scalar) in
  let state = span "npb.state" I.create in
  let checkpoint iteration =
    let file =
      span "checkpoint.snapshot" (fun () ->
          Pruned.snapshot ~report ~app:A.name ~iteration
            ~float_vars:(I.float_vars state) ~int_vars:(I.int_vars state) ())
    in
    ignore
      (span "checkpoint.save" (fun () ->
           Store.save ~sidecar_aux:true store file));
    count "checkpoint.saves" 1.;
    count "checkpoint.bytes_written"
      (float_of_int (Store.disk_bytes store iteration))
  in
  let rec go from =
    if from >= crash_at then ()
    else begin
      span "npb.run" (fun () -> I.run state ~from ~until:(from + 1));
      checkpoint (from + 1);
      go (from + 1)
    end
  in
  go 0

(* [Harness.restart_resilient]: walk back from the newest checkpoint,
   skipping any that fail to load or restore, then finish the run.
   Returns the output and the iteration the run resumed from. *)
let restart ~poison ~store (module A : App.S) =
  let niter = A.default_niter in
  let module I = A.Make (Float_scalar) in
  let finish state from =
    span "npb.run" (fun () -> I.run state ~from ~until:niter);
    (I.output state, from)
  in
  let rec walk = function
    | [] -> finish (span "npb.state" I.create) 0
    | it :: older -> (
        match span "checkpoint.load" (fun () -> Store.load store it) with
        | Error _ ->
            count "checkpoint.skipped" 1.;
            walk older
        | Ok file -> (
            let state = span "npb.state" I.create in
            match
              span "checkpoint.restore" (fun () ->
                  Pruned.restore ~poison file ~float_vars:(I.float_vars state)
                    ~int_vars:(I.int_vars state))
            with
            | from -> finish state from
            | exception Invalid_argument _ ->
                count "checkpoint.skipped" 1.;
                walk older))
  in
  walk
    (List.rev (span "checkpoint.load" (fun () -> Store.list_iterations store)))

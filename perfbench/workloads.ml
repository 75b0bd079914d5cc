(* The four workloads.  README.md in this directory records why each was
   chosen and which layer metric should move which end-to-end metric.

   Every workload is a setup (inputs and references, untimed by the
   pass), a pass (the public entry points, timed phase by phase), and a
   traced pass (the same work rebuilt under spans, see rebuild.ml).
   Every comparison against a reference is one correctness check. *)

open Scvad_core
module Suite = Scvad_npb.Suite
module Store = Scvad_checkpoint.Store
module Failure = Scvad_checkpoint.Failure
module Pool = Scvad_par.Pool

let attempted = ref 0
let failures : string list ref = ref []

let check what ok =
  incr attempted;
  if not ok then failures := what :: !failures

type ctx = {
  seed : int;
  corrupt : bool;  (** corrupt one reference, to prove the checks bite *)
  work_dir : string;  (** where the benchmark may write files *)
}

(* One timed operation of a pass: the end-to-end phase it belongs to
   (e.g. [scrutiny_s]), the operation (e.g. the app) and its seconds. *)
type timing = { phase : string; op : string; seconds : float }

type instance = {
  pass : Random.State.t -> timing list;
      (** one untraced pass, timed operation by operation *)
  traced_pass : Random.State.t -> unit;
      (** the pass rebuilt under spans, checked against the last
          untraced pass *)
  exact : unit -> (string * string * float) list;
      (** exact quantities of the last pass: name, unit, value *)
  finish : unit -> unit;
}

type t = { name : string; jobs : int; setup : ctx -> instance }

(* The seed permutes the apps (or passes) of every pass. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Every app operation starts on a settled heap: a full major collection
   first, outside the timer and outside any span, so that the garbage one
   operation leaves behind (FT's tape alone is 600 MB) is not charged to
   whichever operation the seed happened to put next. *)
let settle () = Gc.full_major ()

let timed f =
  settle ();
  Trace.time f

let operation name f =
  settle ();
  Trace.operation name f

let app name =
  match Suite.find name with
  | Some a -> a
  | None -> failwith ("perfbench: no app " ^ name)

let app_name (module A : App.S) = A.name
let nothing_exact () = []
let nothing_to_finish () = ()

(* Bitwise mask equality, one check per variable of [reference]. *)
let same_masks what (reference : Criticality.var_report list)
    (vars : Criticality.var_report list) =
  let names =
    List.map (fun (v : Criticality.var_report) -> v.Criticality.name)
  in
  check (what ^ ": variables") (names reference = names vars);
  List.iter
    (fun (r : Criticality.var_report) ->
      check
        (Printf.sprintf "%s: mask of %s" what r.Criticality.name)
        (match
           List.find_opt
             (fun (v : Criticality.var_report) ->
               v.Criticality.name = r.Criticality.name)
             vars
         with
        | Some v -> v.Criticality.mask = r.Criticality.mask
        | None -> false))
    reference

(* ------------------------------------------------------------------ *)
(* analyze-serial                                                       *)
(* ------------------------------------------------------------------ *)

let table2 ~corrupt =
  match Suite.paper_table2 with
  | (b, v, uncritical, total) :: rest when corrupt ->
      (b, v, uncritical + 1, total) :: rest
  | rows -> rows

let analyze_serial =
  let setup ctx =
    let table = table2 ~corrupt:ctx.corrupt in
    (* The inputs are the kernels' own NPB generators: build every app
       in float mode and check its checkpoint variables against the
       element totals of the Table II oracle. *)
    List.iter
      (fun (module A : App.S) ->
        let module I = A.Make (Scvad_ad.Float_scalar) in
        let vars = I.float_vars (I.create ()) in
        List.iter
          (fun (b, var, _, total) ->
            if b = A.name then
              check
                (Printf.sprintf "%s.%s: %d elements" b var total)
                (List.exists
                   (fun v ->
                     v.Variable.name = var && Variable.elements v = total)
                   vars))
          table)
      Suite.all;
    let last = Hashtbl.create 8 in
    let pass rng =
      let runs =
          List.map
          (fun a -> timed (fun () -> Analyzer.run a))
          (shuffle rng Suite.all)
      in
      List.iter
        (fun ((r : Criticality.report), _) ->
          Option.iter
            (fun (prev : Criticality.report) ->
              same_masks (r.Criticality.app ^ " again") prev.Criticality.vars
                r.Criticality.vars)
            (Hashtbl.find_opt last r.Criticality.app);
          Hashtbl.replace last r.Criticality.app r)
        runs;
      List.iter
        (fun (b, var, uncritical, total) ->
          let v = Criticality.find (Hashtbl.find last b) var in
          check
            (Printf.sprintf "Table II %s.%s: %d of %d uncritical" b var
               uncritical total)
            (Criticality.uncritical v = uncritical
            && Criticality.total v = total))
        table;
      List.map
        (fun ((r : Criticality.report), seconds) ->
          { phase = "scrutiny_s"; op = r.Criticality.app; seconds })
        runs
    in
    let traced_pass rng =
      List.iter
        (fun a ->
          let r = Hashtbl.find last (app_name a) in
          let rebuilt =
            operation ("analyze " ^ app_name a) (fun () ->
                Rebuild.dense_analysis a)
          in
          same_masks ("traced " ^ app_name a) r.Criticality.vars
            rebuilt.Rebuild.vars;
          check
            ("traced " ^ app_name a ^ ": tape nodes")
            (rebuilt.Rebuild.tape_nodes = r.Criticality.tape_nodes))
        (shuffle rng Suite.all)
    in
    { pass; traced_pass; exact = nothing_exact; finish = nothing_to_finish }
  in
  { name = "analyze-serial"; jobs = 1; setup }

(* ------------------------------------------------------------------ *)
(* analyze-budget                                                       *)
(* ------------------------------------------------------------------ *)

let analyze_budget =
  let jobs = Pool.default_jobs () in
  let setup ctx =
    (* The dense masks are the reference; the budget is a quarter of
       the dense tape. *)
    let subjects =
      List.map
        (fun a ->
          let dense = Analyzer.run a in
          (a, dense, Stdlib.max 1 (dense.Criticality.tape_nodes / 4)))
        [ app "ft"; app "cg" ]
    in
    let subjects =
      match subjects with
      | (a, dense, budget) :: rest when ctx.corrupt ->
          let vars =
            match dense.Criticality.vars with
            | (v : Criticality.var_report) :: vs ->
                let mask = Array.copy v.Criticality.mask in
                mask.(0) <- not mask.(0);
                { v with Criticality.mask } :: vs
            | [] -> []
          in
          (a, { dense with Criticality.vars }, budget) :: rest
      | s -> s
    in
    let config budget =
      Analyzer.Config.(default |> with_memory_budget budget |> with_jobs jobs)
    in
    let pass rng =
      List.map
        (fun (a, (dense : Criticality.report), budget) ->
          let r, seconds =
            timed (fun () -> Analyzer.run ~config:(config budget) a)
          in
          same_masks
            (r.Criticality.app ^ " under budget")
            dense.Criticality.vars r.Criticality.vars;
          { phase = "scrutiny_s"; op = app_name a; seconds })
        (shuffle rng subjects)
    in
    let traced_pass rng =
      List.iter
        (fun (a, (dense : Criticality.report), budget_nodes) ->
          let rebuilt =
            operation ("analyze " ^ app_name a) (fun () ->
                if jobs = 1 then Rebuild.segmented_analysis ~budget_nodes a
                else
                  Pool.with_pool ~jobs (fun pool ->
                      Rebuild.segmented_analysis ~pool ~budget_nodes a))
          in
          same_masks ("traced " ^ app_name a) dense.Criticality.vars
            rebuilt.Rebuild.vars;
          check
            ("traced " ^ app_name a ^ ": tape nodes")
            (rebuilt.Rebuild.tape_nodes = dense.Criticality.tape_nodes))
        (shuffle rng subjects)
    in
    { pass; traced_pass; exact = nothing_exact; finish = nothing_to_finish }
  in
  { name = "analyze-budget"; jobs; setup }

(* ------------------------------------------------------------------ *)
(* checkpoint-restart                                                   *)
(* ------------------------------------------------------------------ *)

(* What restarted runs find in the uncritical slots: chosen by the
   seed, never consulted by an oracle. *)
let poison_of_seed seed =
  match ((seed mod 3) + 3) mod 3 with
  | 0 -> Failure.Nan
  | 1 -> Failure.Zero
  | _ -> Failure.Garbage (float_of_int (abs (seed mod 1000)) +. 0.25)

type subject = {
  s_app : (module App.S);
  s_report : Criticality.report;
  s_golden : Harness.run_result;
  s_store : Store.t;
}

let checkpoint_restart =
  let setup ctx =
    let poison = poison_of_seed ctx.seed in
    let subjects =
      List.map
        (fun ((module A : App.S) as a) ->
          {
            s_app = a;
            s_report = Analyzer.run a;
            s_golden = Harness.golden_run a;
            s_store =
              Store.create
                ~retention:{ Store.keep_last = Some 2; keep_every = None }
                (Filename.concat ctx.work_dir ("store-" ^ A.name));
          })
        [ app "lu"; app "mg"; app "sp"; app "is" ]
    in
    let subjects =
      match subjects with
      | s :: rest when ctx.corrupt ->
          let g = s.s_golden in
          {
            s with
            s_golden =
              {
                g with
                Harness.output = Failure.flip_bit g.Harness.output ~bit:0;
              };
          }
          :: rest
      | s -> s
    in
    let last_bytes = ref None in
    let pass rng =
      let bytes = ref 0 in
      let timings =
        List.concat_map
        (fun s ->
          let (module A : App.S) = s.s_app in
          let niter = A.default_niter in
          Store.wipe s.s_store;
          let (), protected =
            timed (fun () ->
                match
                  Harness.run_with_checkpoints ~report:s.s_report
                    ~crash_at:(niter - 1) ~store:s.s_store ~every:1 s.s_app
                with
                | _ -> check (A.name ^ ": the protected run crashed") false
                | exception Failure.Crash _ -> ())
          in
          check
            (A.name ^ ": the store keeps the last two checkpoints")
            (Store.list_iterations s.s_store = [ niter - 2; niter - 1 ]);
          bytes := !bytes + Store.disk_bytes s.s_store (niter - 1);
          let r, restart =
            timed (fun () ->
                Harness.restart_resilient ~poison ~store:s.s_store s.s_app)
          in
          check
            (A.name ^ ": restarted output equals the golden run bitwise")
            (Harness.verified ~golden:s.s_golden ~restarted:r.Harness.run);
          check
            (A.name ^ ": restarted from the newest checkpoint")
            (r.Harness.restored_iteration = niter - 1
            && r.Harness.skipped = []);
          [ { phase = "protected_run_s"; op = A.name; seconds = protected };
            { phase = "restart_s"; op = A.name; seconds = restart } ])
        (shuffle rng subjects)
      in
      Option.iter
        (fun b -> check "checkpoint bytes repeat exactly" (b = !bytes))
        !last_bytes;
      last_bytes := Some !bytes;
      timings
    in
    let traced_pass rng =
      List.iter
        (fun s ->
          let (module A : App.S) = s.s_app in
          let niter = A.default_niter in
          Store.wipe s.s_store;
          operation ("checkpoint " ^ A.name) (fun () ->
              Rebuild.protected_run ~report:s.s_report ~store:s.s_store
                s.s_app);
          let output, from =
            operation ("restart " ^ A.name) (fun () ->
                Rebuild.restart ~poison ~store:s.s_store s.s_app)
          in
          check
            ("traced " ^ A.name ^ ": restarted output equals the golden run")
            (Harness.verified ~golden:s.s_golden
               ~restarted:{ Harness.output; iterations = niter });
          check
            ("traced " ^ A.name ^ ": restarted from the newest checkpoint")
            (from = niter - 1))
        (shuffle rng subjects)
    in
    let exact () =
      match !last_bytes with
      | Some b -> [ ("ckpt_bytes", "bytes", float_of_int b) ]
      | None -> []
    in
    let finish () =
      List.iter
        (fun s ->
          Store.wipe s.s_store;
          try Sys.rmdir (Store.dir s.s_store) with Sys_error _ -> ())
        subjects
    in
    { pass; traced_pass; exact; finish }
  in
  { name = "checkpoint-restart"; jobs = 1; setup }

(* ------------------------------------------------------------------ *)
(* static-passes                                                        *)
(* ------------------------------------------------------------------ *)

(* Committed references for the static passes' exact counts. *)
let ref_inactive_elements = 135_168
let ref_discover = (40, 0, 1, 0) (* required, recomputable, dead, unknown *)
let ref_guard = (15, 11, 0) (* smooth, control-tainted, unknown *)
let ref_race_free_sites = 4

let ref_predicted_nodes =
  [ ("bt", 3_568_446); ("sp", 601_446); ("mg", 2_357_624); ("lu", 640_637) ]

let locate what = function
  | Some dir -> dir
  | None ->
      failwith
        (Printf.sprintf "perfbench: %s sources not found above %s" what
           (Sys.getcwd ()))

(* Every .ml under [dir], recursively, sorted. *)
let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then sources p
         else if Filename.check_suffix f ".ml" then [ p ]
         else [])

let static_passes =
  let setup ctx =
    let npb = locate "lib/npb" (Scvad_activity.Driver.locate_npb_dir ()) in
    let lib = locate "lib" (Scvad_racefree.Driver.locate_lib_dir ()) in
    (* The inputs are the sources themselves: read every one the passes
       parse, so a missing or unreadable file fails here. *)
    List.iter (fun f -> ignore (Digest.file f)) (sources lib);
    let smooth, tainted, unknown = ref_guard in
    let smooth = if ctx.corrupt then smooth + 1 else smooth in
    let count name n = Trace.count name (float_of_int n) in
    let activity () =
      let verdicts, _ = Scvad_activity.Driver.analyze_dir npb in
      let n = Scvad_activity.Verdict.total_inactive_claims verdicts in
      count "activity_static.inactive_elements" n;
      check "activity: statically inactive elements" (n = ref_inactive_elements)
    in
    let guard () =
      let certs, _ = Scvad_guard.Driver.analyze_dir npb in
      let n cls = Scvad_guard.Cert.count_class certs cls in
      count "guard.smooth_vars" (n Scvad_guard.Cert.Smooth);
      check "guard: smooth / control-tainted / unknown variables"
        (n Scvad_guard.Cert.Smooth = smooth
        && n Scvad_guard.Cert.Control_tainted = tainted
        && n Scvad_guard.Cert.Unknown = unknown)
    in
    let discover () =
      let proposals, _ = Scvad_discover.Driver.analyze_dir npb in
      let n v = Scvad_discover.Rank.count_verdict proposals v in
      check "discover: required / recomputable / dead / unknown fields"
        (( n Scvad_discover.Rank.Required,
           n Scvad_discover.Rank.Prunable_recomputable,
           n Scvad_discover.Rank.Prunable_dead,
           n Scvad_discover.Rank.Unknown )
        = ref_discover)
    in
    let racefree () =
      let report = Scvad_racefree.Driver.certify ~root:lib in
      let free = Scvad_racefree.Driver.count report "race-free" in
      count "racefree.race_free_sites" free;
      check "racefree: race-free sites"
        (free = ref_race_free_sites
        && List.length report.Scvad_racefree.Driver.r_sites
           = ref_race_free_sites)
    in
    let cost rng () =
      let world =
        Trace.span "cost_static.load" (fun () ->
            Scvad_cost.World.load ~npb_dir:npb ())
      in
      List.iter
        (fun (name, nodes) ->
          let predicted =
            Trace.span "cost_static.predict" (fun () ->
                match Scvad_cost.World.find_app world name with
                | Some a ->
                    (Scvad_cost.Predict.predict world a).Scvad_cost.Predict.p_total
                | None -> -1)
          in
          count "cost_static.predicted_nodes" predicted;
          check
            (Printf.sprintf "cost: %s predicts %d tape nodes" name nodes)
            (predicted = nodes))
        (shuffle rng ref_predicted_nodes)
    in
    let passes rng =
      shuffle rng
        [
          ( "activity_static",
            fun () -> Trace.span "activity_static.pass" activity );
          ("guard", fun () -> Trace.span "guard.pass" guard);
          ("discover", fun () -> Trace.span "discover.pass" discover);
          ("racefree", fun () -> Trace.span "racefree.pass" racefree);
          ("cost_static", cost rng);
        ]
    in
    let pass rng =
      List.map
        (fun (op, p) -> { phase = "static_s"; op; seconds = snd (timed p) })
        (passes rng)
    in
    let traced_pass rng =
      List.iter
        (fun (name, p) -> operation ("static " ^ name) p)
        (passes rng)
    in
    { pass; traced_pass; exact = nothing_exact; finish = nothing_to_finish }
  in
  { name = "static-passes"; jobs = 1; setup }

let all = [ analyze_serial; analyze_budget; checkpoint_restart; static_passes ]

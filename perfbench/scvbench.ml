(* scvbench: run one workload of the scvad benchmark.

     scvbench --workload NAME --seed N --seconds S --trace 0|1
              [--commit SHA] [--corrupt-reference]

   Untraced (--trace 0): set the workload up at least [min_setups] times
   and for at least [min_setup_s] seconds, then run passes of the public
   entry points for about [S] seconds, and report the end-to-end metrics
   as medians over setups and passes.  Traced
   (--trace 1): set up once, then alternate an untraced pass with the
   same pass rebuilt under spans, and report the per-layer metrics per
   traced pass plus the tracing overhead.  The spans go to
   .perfbench/trace-NAME-seedN.json.

   The last line of standard output is the result:
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   and the line before it a record of the run (its settings, every
   metric including the workload-specific ones, every sample) that
   run.py --compare reads.  Exit code 1 when a check failed; 2 on bad
   arguments or an error, with no result printed. *)

let min_setups = 3
let min_setup_s = 1.0
let max_setups = 200
let work_dir = ".perfbench"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("scvbench: " ^ s);
      exit 2)
    fmt

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  commit : string;
  corrupt : bool;
}

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref false and commit = ref "unknown" and corrupt = ref false in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s expects an integer, got %S" flag v
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := Some (int_arg "--seed" v);
        go rest
    | "--seconds" :: v :: rest ->
        let s = int_arg "--seconds" v in
        if s < 1 then die "--seconds must be at least 1";
        seconds := Some (float_of_int s);
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := v = "1";
        go rest
    | "--commit" :: v :: rest ->
        commit := v;
        go rest
    | "--corrupt-reference" :: rest ->
        corrupt := true;
        go rest
    | arg :: _ -> die "unexpected argument %S" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds) with
  | Some workload, Some seed, Some seconds ->
      { workload; seed; seconds; trace = !trace; commit = !commit;
        corrupt = !corrupt }
  | _ -> die "need --workload NAME --seed N --seconds S --trace 0|1"

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* High-water resident memory, from /proc; reset first so the setup's
   peak does not hide the passes'. *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> Some kb
            | None -> scan ())
      in
      let r = scan () in
      close_in ic;
      r

let reset_hwm () =
  match open_out "/proc/self/clear_refs" with
  | exception Sys_error _ -> false
  | oc -> (
      match
        output_string oc "5";
        close_out oc
      with
      | () -> true
      | exception Sys_error _ -> false)

(* Run passes for about [seconds]: at least one, and another only while
   it is expected to end less than half a pass after [seconds] (a pass
   of static-passes takes most of a run). *)
let repeat_for seconds f =
  let t0 = Trace.now_ns () in
  let rec go acc =
    let t_pass = Trace.now_ns () in
    let acc = f () :: acc in
    let now = Trace.now_ns () in
    let last = Trace.seconds_between t_pass now in
    if Trace.seconds_between t0 now +. (last /. 2.) >= seconds then List.rev acc
    else go acc
  in
  go []

(* Per-layer metrics: name and unit, in report order.  A [_s] metric is
   the self time of the spans of that name, per traced pass, except
   [par.map_s], the wall time of the pool's maps inside those spans. *)
let per_layer =
  [ ("npb.state_s", "s"); ("npb.run_s", "s"); ("ad.record_s", "s");
    ("ad.tape_nodes", "count"); ("ad.record_ns_per_node", "ns");
    ("ad.backward_s", "s"); ("ad.visited_nodes", "count");
    ("ad.active_fraction", "ratio"); ("ad.capture_s", "s");
    ("ad.replay_s", "s"); ("ad.replays", "count");
    ("ad.replayed_nodes", "count"); ("ad.replay_ratio", "ratio");
    ("ad.peak_live_nodes", "count"); ("ad.dep_tape_s", "s");
    ("core.extract_s", "s"); ("core.regions", "count");
    ("par.map_calls", "count"); ("par.tasks", "count"); ("par.map_s", "s");
    ("par.busy_frac", "ratio"); ("checkpoint.snapshot_s", "s");
    ("checkpoint.save_s", "s"); ("checkpoint.saves", "count");
    ("checkpoint.bytes_written", "bytes"); ("checkpoint.load_s", "s");
    ("checkpoint.restore_s", "s"); ("checkpoint.skipped", "count");
    ("activity_static.pass_s", "s"); ("guard.pass_s", "s");
    ("discover.pass_s", "s"); ("racefree.pass_s", "s");
    ("cost_static.load_s", "s"); ("cost_static.predict_s", "s");
    ("activity_static.inactive_elements", "count");
    ("guard.smooth_vars", "count"); ("racefree.race_free_sites", "count");
    ("cost_static.predicted_nodes", "count"); ("trace.untraced_s", "s");
    ("trace.traced_s", "s"); ("trace.overhead_s", "s");
    ("trace.layers_s", "s"); ("trace.unaccounted_s", "s");
    ("trace.spans", "count") ]

let end_to_end = [ ("pass_s", "s"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]

type result = {
  metrics : (string * string * float) list;  (** name, unit, value *)
  samples : (string * float list) list;
  extra : (string * string) list;  (** record-only fields, as JSON *)
}

let sum_seconds timings =
  List.fold_left (fun acc (t : Workloads.timing) -> acc +. t.seconds) 0. timings

(* Each timed operation's median over the passes.  A phase metric (say
   [scrutiny_s]) is the sum of its operations' medians and [pass_s] the
   sum over all phases: the time of a typical pass with every operation
   taken at its median, so a burst of noise that hits one operation of
   one pass moves nothing. *)
let op_medians passes =
  let all = List.concat passes in
  List.sort_uniq compare
    (List.map (fun (t : Workloads.timing) -> (t.phase, t.op)) all)
  |> List.map (fun (phase, op) ->
         ( phase,
           op,
           median
             (List.filter_map
                (fun (t : Workloads.timing) ->
                  if t.phase = phase && t.op = op then Some t.seconds else None)
                all) ))

let phase_sum phase timings =
  List.fold_left
    (fun acc (p, _, v) -> if p = phase then acc +. v else acc)
    0. timings

let untraced (w : Workloads.t) ctx ~seconds =
  let rng = Random.State.make [| ctx.Workloads.seed |] in
  (* Only the last instance is kept; the earlier ones only time setup. *)
  let rec set_up n spent =
    let inst, t = Trace.time (fun () -> w.setup ctx) in
    let spent = t :: spent in
    if n + 1 >= max_setups
       || (n + 1 >= min_setups && List.fold_left ( +. ) 0. spent >= min_setup_s)
    then (inst, List.rev spent)
    else set_up (n + 1) spent
  in
  let inst, setup_samples = set_up 0 [] in
  Fun.protect ~finally:inst.Workloads.finish (fun () ->
      Gc.compact ();
      let rss_reset = reset_hwm () in
      let passes = repeat_for seconds (fun () -> inst.Workloads.pass rng) in
      let hwm = Option.value (vm_hwm_kb ()) ~default:0 in
      let ops = op_medians passes in
      let phases = List.sort_uniq compare (List.map (fun (p, _, _) -> p) ops) in
      let per_pass phase =
        List.map
          (fun pass ->
            sum_seconds
              (List.filter
                 (fun (t : Workloads.timing) -> t.phase = phase)
                 pass))
          passes
      in
      let attempted = !Workloads.attempted in
      let failed = List.length !Workloads.failures in
      {
        metrics =
          [ ("pass_s", "s",
             List.fold_left (fun acc (_, _, v) -> acc +. v) 0. ops);
            ("setup_s", "s", median setup_samples);
            ("peak_rss_mb", "MB", float_of_int hwm /. 1024.) ]
          @ List.map (fun p -> (p, "s", phase_sum p ops)) phases
          @ List.map
              (fun (p, op, v) ->
                ( Printf.sprintf "%s.%s_s" (Filename.chop_suffix p "_s") op,
                  "s",
                  v ))
              ops
          @ inst.Workloads.exact ()
          @ [ ("failed_frac", "ratio",
               float_of_int failed /. float_of_int (max 1 attempted)) ];
        samples =
          ("pass_s", List.map sum_seconds passes) :: ("setup_s", setup_samples)
          :: List.map (fun p -> (p, per_pass p)) phases;
        extra =
          [ ("rss_reset", string_of_bool rss_reset);
            ("setups", string_of_int (List.length setup_samples));
            ("passes", string_of_int (List.length passes)) ];
      })

let traced (w : Workloads.t) ctx ~seconds =
  let rng = Random.State.make [| ctx.Workloads.seed |] in
  let inst = w.setup ctx in
  Fun.protect ~finally:inst.Workloads.finish (fun () ->
      Trace.reset ();
      let pairs =
        repeat_for seconds (fun () ->
            let u = sum_seconds (inst.Workloads.pass rng) in
            let before = !Trace.op_ns in
            Trace.enabled := true;
            Fun.protect
              ~finally:(fun () -> Trace.enabled := false)
              (fun () -> inst.Workloads.traced_pass rng);
            (u, Trace.seconds_between before !Trace.op_ns))
      in
      let n = float_of_int (List.length pairs) in
      let selfs = Trace.self_times () in
      let self name =
        Option.value (List.assoc_opt name selfs) ~default:0. /. n
      in
      let per_pass name = Trace.counter name /. n in
      let ratio a b = if b > 0. then a /. b else 0. in
      let untraced_s = median (List.map fst pairs)
      and traced_s = median (List.map snd pairs) in
      let layers_s =
        List.fold_left
          (fun acc (name, s) -> if name = "op" then acc else acc +. s)
          0. selfs
        /. n
      in
      let value name =
        match name with
        | "ad.record_ns_per_node" ->
            ratio (self "ad.record" *. 1e9) (per_pass "ad.tape_nodes")
        | "ad.active_fraction" ->
            ratio
              (Trace.counter "ad.visited_nodes")
              (Trace.counter "ad.swept_nodes")
        | "ad.replay_ratio" ->
            ratio
              (Trace.counter "ad.replayed_nodes")
              (Trace.counter "ad.tape_nodes")
        | "ad.peak_live_nodes" -> Trace.counter name
        | "par.map_s" -> per_pass name
        | "par.busy_frac" ->
            ratio
              (float_of_int (Atomic.get Trace.busy_ns) *. 1e-9 /. n)
              (per_pass "par.map_s" *. float_of_int w.jobs)
        | "trace.untraced_s" -> untraced_s
        | "trace.traced_s" -> traced_s
        | "trace.overhead_s" -> traced_s -. untraced_s
        | "trace.layers_s" -> layers_s
        | "trace.unaccounted_s" -> self "op"
        | "trace.spans" -> float_of_int (Trace.span_count ()) /. n
        | _ when Filename.check_suffix name "_s" ->
            self (Filename.chop_suffix name "_s")
        | _ -> per_pass name
      in
      Trace.write_chrome
        (Filename.concat work_dir
           (Printf.sprintf "trace-%s-seed%d.json" w.name ctx.Workloads.seed));
      {
        metrics =
          List.map (fun (name, unit) -> (name, unit, value name)) per_layer;
        samples =
          [ ("trace.untraced_s", List.map fst pairs);
            ("trace.traced_s", List.map snd pairs) ];
        extra =
          [ ("passes", string_of_int (List.length pairs));
            (* The layers cover all but 1 % of the traced operations, so
               |untraced - layers| <= |overhead| + unaccounted: they
               account for the untraced pass to within the overhead. *)
            ("self_time_accounts",
             string_of_bool (self "op" <= 0.01 *. traced_s)) ];
      })

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_metrics metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_float v) unit)
         metrics)
  ^ "}"

let () =
  let args = parse_args () in
  let w =
    match
      List.find_opt
        (fun (w : Workloads.t) -> w.name = args.workload)
        Workloads.all
    with
    | Some w -> w
    | None ->
        die "unknown workload %S (known: %s)" args.workload
          (String.concat ", "
             (List.map (fun (w : Workloads.t) -> w.name) Workloads.all))
  in
  (try Sys.mkdir work_dir 0o755 with Sys_error _ -> ());
  let ctx =
    { Workloads.seed = args.seed; corrupt = args.corrupt; work_dir }
  in
  let r =
    if args.trace then traced w ctx ~seconds:args.seconds
    else untraced w ctx ~seconds:args.seconds
  in
  let attempted = !Workloads.attempted in
  let failed = List.length !Workloads.failures in
  List.iter
    (fun f -> prerr_endline ("scvbench: check failed: " ^ f))
    (List.rev !Workloads.failures);
  let reported = if args.trace then per_layer else end_to_end in
  let headline =
    List.filter (fun (n, _, _) -> List.mem_assoc n reported) r.metrics
  in
  let samples =
    "{"
    ^ String.concat ", "
        (List.map
           (fun (n, xs) ->
             Printf.sprintf "%S: [%s]" n
               (String.concat ", " (List.map json_float xs)))
           r.samples)
    ^ "}"
  in
  Printf.printf
    "{\"record\": {\"workload\": %S, \"seed\": %d, \"trace\": %d, \"jobs\": \
     %d, \"hardware_threads\": %d, \"nproc\": %d, \"ocaml\": %S, \"commit\": \
     %S, %s\"attempted\": %d, \"failed\": %d, \
     \"metrics\": %s, \"samples\": %s}}\n"
    w.name args.seed
    (if args.trace then 1 else 0)
    w.jobs
    (Scvad_par.Pool.hardware_threads ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version args.commit
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf "%S: %s, " k v) r.extra))
    attempted failed (json_metrics r.metrics) samples;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     %s}\n"
    (failed = 0) attempted failed (json_metrics headline);
  exit (if failed = 0 then 0 else 1)

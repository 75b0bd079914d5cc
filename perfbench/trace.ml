(* Clock, spans and counters of the benchmark.

   The benchmark measures each layer of scvad from the outside: a span
   goes around every call the benchmark makes into a layer's public
   functions.  Spans are recorded only while a traced pass runs and only
   on the main domain (the pool's worker domains run tasks, never
   spans); they are kept in memory and written out once, at the end.

   A span's self time is its duration minus the time its child spans
   cover.  Children of one span run one after another on the main
   domain, so the covered time is the sum of their durations. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_between t0 t1 = float_of_int (t1 - t0) *. 1e-9

(* Wall time of [f ()], in seconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_between t0 (now_ns ()))

type span = {
  id : int;
  name : string;
  op : string;  (** the app operation the span belongs to *)
  parent : int;  (** -1 for a root *)
  t_start : int;
  mutable t_end : int;
  mutable child_ns : int;
}

let enabled = ref false
let recorded : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0
let current_op = ref ""

let span name f =
  if not (!enabled && Domain.is_main_domain ()) then f ()
  else begin
    let parent = match !open_spans with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = !next_id; name; op = !current_op; parent; t_start = now_ns ();
        t_end = 0; child_ns = 0 }
    in
    incr next_id;
    open_spans := s :: !open_spans;
    let close () =
      s.t_end <- now_ns ();
      open_spans := List.tl !open_spans;
      (match !open_spans with
      | p :: _ -> p.child_ns <- p.child_ns + (s.t_end - s.t_start)
      | [] -> ());
      recorded := s :: !recorded
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        close ();
        Printexc.raise_with_backtrace e bt
  end

(* Total time inside {!operation}s: the traced counterpart of the
   untraced pass's timed operations. *)
let op_ns = ref 0

(* Run [f] as the root span of one app operation: every span opened
   inside carries [op] as its identifier. *)
let operation op f =
  current_op := op;
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () -> op_ns := !op_ns + (now_ns () - t0))
    (fun () -> span "op" f)

(* Task time the pool's domains spent inside {!fan}'s tasks. *)
let busy_ns = Atomic.make 0

(* Integer and float counters, keyed by per-layer metric name. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let count name v =
  if !enabled then
    Hashtbl.replace counters name
      (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.)

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0.

let maximum name v =
  if !enabled then Hashtbl.replace counters name (Float.max v (counter name))

let reset () =
  recorded := [];
  open_spans := [];
  next_id := 0;
  op_ns := 0;
  Hashtbl.reset counters;
  Atomic.set busy_ns 0

(* Self time, in seconds, summed per span name. *)
let self_times () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = s.t_end - s.t_start - s.child_ns in
      Hashtbl.replace tbl s.name
        (self + Option.value (Hashtbl.find_opt tbl s.name) ~default:0))
    !recorded;
  Hashtbl.fold
    (fun name ns acc -> (name, float_of_int ns *. 1e-9) :: acc)
    tbl []
  |> List.sort compare

let span_count () = List.length !recorded

(* Chrome trace-event JSON (load it in chrome://tracing or Perfetto). *)
let write_chrome path =
  let oc = open_out path in
  let spans = List.rev !recorded in
  let t_base = match spans with s :: _ -> s.t_start | [] -> 0 in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
         %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"op\": \
         %S}}"
        (if i = 0 then "" else ",\n")
        s.name
        (float_of_int (s.t_start - t_base) /. 1e3)
        (float_of_int (s.t_end - s.t_start) /. 1e3)
        s.id s.parent s.op)
    spans;
  output_string oc "\n]\n";
  close_out oc

(* The benchmark's own fan-out capability around [Pool.map]: the same
   parallel map the analyzer hands the tape, plus the [par.*] counters —
   calls, tasks, the wall time of the maps and the task time the domains
   were busy.  The wall time is a counter, not a span: the tasks do the
   caller's work (sweeping, extracting), so their time stays in the
   caller's span. *)
let fan pool =
  let run f xs =
    let t0 = now_ns () in
    let ys =
      Scvad_par.Pool.map pool
        (fun x ->
          let t0 = now_ns () in
          let y = f x in
          ignore (Atomic.fetch_and_add busy_ns (now_ns () - t0));
          y)
        xs
    in
    count "par.map_calls" 1.;
    count "par.tasks" (float_of_int (List.length xs));
    count "par.map_s" (seconds_between t0 (now_ns ()));
    ys
  in
  { Scvad_ad.Tape_intf.fan_run = run }

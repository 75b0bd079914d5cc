(* Frontier (sparse) backward sweep: the worklist sweep — dense,
   segmented, and segment-parallel — must be bitwise identical to the
   plain sequential dense sweep, for any schedule, budget, and job
   count.

   The "sparse" suite pins the engine down on random register-machine
   programs (harness shared with Test_segtape) plus the IS degenerate
   case (an integer-sorting kernel whose reverse tape records zero
   float nodes: the frontier is empty, every float mask all-false).

   The "sparse-gate" suite is the CI gate: across the full NPB suite,
   masks from the frontier sweep at jobs=4 — and from the
   segment-parallel budgeted sweep — are bitwise identical to the
   unbudgeted jobs=1 baseline, and the visited-node counts are the
   same at every budget and job count. *)

open Scvad_ad
module Crit = Scvad_core.Criticality
module Analyzer = Scvad_core.Analyzer
module Npb = Scvad_npb
module Pool = Scvad_par.Pool

let fan_of pool =
  { Tape_intf.fan_run = (fun f xs -> Pool.map pool f xs) }

(* Long-lived pools shared by all property cases (spawning domains per
   qcheck case would dominate the suite's runtime); joined at exit. *)
let pool_of jobs =
  lazy
    (let p = Pool.create ~jobs in
     at_exit (fun () -> Pool.shutdown p);
     p)

let pool1 = pool_of 1
let pool4 = pool_of 4

(* Dense run with an optional fan; returns the output value, the tape
   length, the per-node adjoint, and the sweep stats. *)
let run_dense ?fan prog =
  let tape = Tape.create ~capacity_hint:64 () in
  let module S = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  let regs = Test_segtape.init_regs (Reverse.var tape) prog in
  let input_nodes = Array.sub regs 0 prog.Test_segtape.ninputs in
  Array.iter (Test_segtape.exec (module S) regs) prog.Test_segtape.segs;
  let out = Test_segtape.sum_regs (module S) regs input_nodes in
  let adj = Tape.backward ?fan tape ~output:(Reverse.node_id out) in
  (Reverse.value out, Tape.length tape, Tape.adjoint adj, Tape.last_sweep tape)

(* Test_segtape.run_segmented with the pool threaded through to the
   sweep: an unbounded tape, or a budgeted one swept window by window. *)
let run_seg ?fan ?slab_nodes ?snapshot_slots ?budget_nodes prog =
  let tape =
    Test_segtape.new_tape ?slab_nodes ?snapshot_slots ?budget_nodes ()
  in
  let module S = Reverse.Scalar_of (struct
    let tape = tape
  end) in
  let nseg = Array.length prog.Test_segtape.segs in
  let regs = Array.make prog.Test_segtape.nregs (Reverse.const 0.) in
  let input_nodes = ref [||] in
  let out = ref (Reverse.const 0.) in
  let step s =
    Test_segtape.exec (module S) regs prog.Test_segtape.segs.(s);
    if s = nseg - 1 then
      out := Test_segtape.sum_regs (module S) regs !input_nodes
  in
  Tape.set_program tape
    ~capture:(fun () ->
      let snap = Array.copy regs in
      fun () -> Array.blit snap 0 regs 0 (Array.length snap))
    ~replay_step:step;
  Array.blit
    (Test_segtape.init_regs (Reverse.var tape) prog)
    0 regs 0 prog.Test_segtape.nregs;
  input_nodes := Array.sub regs 0 prog.Test_segtape.ninputs;
  for s = 0 to nseg - 1 do
    Tape.start_segment tape;
    step s
  done;
  let adj = Tape.backward ?fan tape ~output:(Reverse.node_id !out) in
  (Reverse.value !out, Tape.adjoint adj, Tape.last_sweep tape)

(* ------------------------------------------------------------------ *)
(* Random programs: every frontier variant equals the dense sweep      *)
(* ------------------------------------------------------------------ *)

let prop_sparse_equals_dense =
  QCheck.Test.make ~count:150
    ~name:
      "frontier backward bitwise equals dense (any jobs, schedule, budget)"
    (QCheck.make ~print:Test_segtape.setup_print Test_segtape.setup_gen)
    (fun (prog, budget, slots) ->
      let dv, total, dadj, dstats = run_dense prog in
      let check what v adj =
        if not (Test_segtape.same_float dv v) then
          QCheck.Test.fail_reportf "%s output: %.17g <> dense %.17g" what v
            dv;
        for id = 0 to total - 1 do
          if not (Test_segtape.same_float (dadj id) (adj id)) then
            QCheck.Test.fail_reportf
              "%s adjoint of node %d: %.17g <> dense %.17g" what id (adj id)
              (dadj id)
        done
      in
      let v1, _, a1, s1 = run_dense ~fan:(fan_of (Lazy.force pool1)) prog in
      check "dense fan jobs=1" v1 a1;
      let v4, _, a4, s4 = run_dense ~fan:(fan_of (Lazy.force pool4)) prog in
      check "dense fan jobs=4" v4 a4;
      (* Visited-node counts are jobs-invariant on the dense tape. *)
      (match (dstats, s1, s4) with
      | Some d, Some x1, Some x4 ->
          if not (d = x1 && d = x4) then
            QCheck.Test.fail_reportf
              "sweep stats differ across jobs: (%d,%d) (%d,%d) (%d,%d)"
              d.Tape_intf.visited_nodes d.Tape_intf.swept_nodes
              x1.Tape_intf.visited_nodes x1.Tape_intf.swept_nodes
              x4.Tape_intf.visited_nodes x4.Tape_intf.swept_nodes
      | _ -> QCheck.Test.fail_reportf "a dense sweep recorded no stats");
      let sv, sadj, _ =
        run_seg ~slab_nodes:16 ~snapshot_slots:slots ?budget_nodes:budget prog
      in
      check "segmented" sv sadj;
      let pv, padj, pstats =
        run_seg
          ~fan:(fan_of (Lazy.force pool4))
          ~slab_nodes:16 ~snapshot_slots:slots ?budget_nodes:budget prog
      in
      check "segment-parallel jobs=4" pv padj;
      (match pstats with
      | Some st ->
          if st.Tape_intf.visited_nodes > st.Tape_intf.swept_nodes then
            QCheck.Test.fail_reportf "visited %d > swept %d"
              st.Tape_intf.visited_nodes st.Tape_intf.swept_nodes;
          (* One visited count at every budget: the budgeted sweep
             counts the prelude leaves it never scans. *)
          if Some st <> dstats then
            QCheck.Test.fail_reportf
              "segment-parallel sweep stats (%d,%d) differ from the \
               unbounded tape's"
              st.Tape_intf.visited_nodes st.Tape_intf.swept_nodes
      | None ->
          QCheck.Test.fail_reportf "segment-parallel sweep recorded no stats");
      true)

(* ------------------------------------------------------------------ *)
(* Sweep-stats surface                                                 *)
(* ------------------------------------------------------------------ *)

(* The dense analyzer report exposes what backward visited; the
   frontier never inspects more than the sweep range. *)
let test_sweep_profile () =
  let d = Analyzer.run (module Npb.Cg.App) in
  match d.Crit.sweep_profile with
  | None -> Alcotest.fail "cg dense report has no sweep profile"
  | Some w ->
      Alcotest.(check bool) "visited > 0" true (w.Crit.w_visited_nodes > 0);
      Alcotest.(check bool)
        "visited <= swept" true
        (w.Crit.w_visited_nodes <= w.Crit.w_swept_nodes);
      Alcotest.(check bool)
        "active fraction in (0, 1]" true
        (w.Crit.w_active_fraction > 0. && w.Crit.w_active_fraction <= 1.)

(* ------------------------------------------------------------------ *)
(* IS: the degenerate all-zero frontier                                *)
(* ------------------------------------------------------------------ *)

(* IS is integer sorting: its reverse tape records zero float nodes, so
   no backward sweep ever runs and the frontier machinery must cope
   with the empty case — all-false float masks, no sweep profile, no
   crash — through the sequential, pooled, and segment-parallel
   paths alike. *)
let test_is_degenerate () =
  let d = Analyzer.run (module Npb.Is.App) in
  Alcotest.(check int) "is records no float nodes" 0 d.Crit.tape_nodes;
  Alcotest.(check bool) "no sweep profile" true (d.Crit.sweep_profile = None);
  List.iter
    (fun (v : Crit.var_report) ->
      match v.Crit.kind with
      | Crit.Float_var ->
          Alcotest.(check bool)
            (Printf.sprintf "is.%s: all-false float mask" v.Crit.name)
            true
            (Array.for_all (fun b -> not b) v.Crit.mask)
      | Crit.Int_var -> ())
    d.Crit.vars;
  let p4 =
    Analyzer.run
      ~config:Analyzer.Config.(default |> with_jobs 4)
      (module Npb.Is.App)
  in
  Test_budget.check_identical "is jobs=4" d p4;
  let s4 =
    Analyzer.run
      ~config:
        Analyzer.Config.(default |> with_memory_budget 1 |> with_jobs 4)
      (module Npb.Is.App)
  in
  Test_budget.check_identical "is segmented jobs=4" d s4;
  Alcotest.(check bool)
    "segmented is: no sweep profile" true
    (s4.Crit.sweep_profile = None)

(* ------------------------------------------------------------------ *)
(* CI gate: full NPB suite, sparse and segment-parallel vs dense       *)
(* ------------------------------------------------------------------ *)

(* Per app (one tape live at a time): the report with the backward
   sweep fanned over a 4-wide pool must match the jobs=1 report
   bitwise, including the visited-node count. *)
let gate_dense (module A : Scvad_core.App.S) () =
  let d = Analyzer.run (module A) in
  let p =
    Analyzer.run ~config:Analyzer.Config.(default |> with_jobs 4) (module A)
  in
  Test_budget.check_identical (A.name ^ ": jobs=4 vs jobs=1") d p;
  Alcotest.(check bool)
    (A.name ^ ": sweep stats jobs-invariant")
    true
    (d.Crit.sweep_profile = p.Crit.sweep_profile)

let gate_segmented name (module A : Scvad_core.App.S) () =
  let d = Analyzer.run (module A) in
  let budget = max 1 (d.Crit.tape_nodes / 4) in
  let seg j =
    Analyzer.run
      ~config:
        Analyzer.Config.(default |> with_memory_budget budget |> with_jobs j)
      (module A)
  in
  let s1 = seg 1 and s4 = seg 4 in
  Test_budget.check_identical (name ^ ": segmented jobs=1 vs dense") d s1;
  Test_budget.check_identical (name ^ ": segmented jobs=4 vs dense") d s4;
  Alcotest.(check bool)
    (name ^ ": segmented sweep stats jobs-invariant")
    true
    (s1.Crit.sweep_profile = s4.Crit.sweep_profile)

(* One [visited_nodes] definition: the sweep profile (visited and swept
   counts) is the same with no budget and with a quarter budget, at
   jobs 1 and 2. *)
let gate_visited (module A : Scvad_core.App.S) () =
  let run ?budget jobs =
    Analyzer.run
      ~config:
        Analyzer.Config.(
          { default with memory_budget = budget } |> with_jobs jobs)
      (module A)
  in
  let d = run 1 in
  let budget = max 1 (d.Crit.tape_nodes / 4) in
  List.iter
    (fun (what, (r : Crit.report)) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s sweep profile = no budget, jobs=1" A.name what)
        true
        (r.Crit.sweep_profile = d.Crit.sweep_profile))
    [
      ("no budget, jobs=2", run 2);
      ("quarter budget, jobs=1", run ~budget 1);
      ("quarter budget, jobs=2", run ~budget 2);
    ]

let gate_tests =
  List.map
    (fun ((module A : Scvad_core.App.S) as app) ->
      Alcotest.test_case
        (A.name ^ ": dense masks, jobs=4 vs jobs=1")
        `Quick (gate_dense app))
    Npb.Suite.all
  @ List.map
      (fun ((module A : Scvad_core.App.S) as app) ->
        Alcotest.test_case
          (A.name ^ ": visited counts, any budget")
          `Quick
          (fun () ->
            Gc.full_major ();
            gate_visited app ();
            Gc.full_major ()))
      Npb.Suite.all
  @ [
      Alcotest.test_case "cg: segment-parallel masks vs dense" `Quick
        (gate_segmented "cg" (module Npb.Cg.App));
      Alcotest.test_case "ft class S: segment-parallel masks vs dense" `Slow
        (fun () ->
          Gc.full_major ();
          gate_segmented "ft" (module Npb.Ft.App) ();
          Gc.full_major ());
    ]

let suites =
  [
    ( "sparse",
      [
        QCheck_alcotest.to_alcotest prop_sparse_equals_dense;
        Alcotest.test_case "cg: dense report exposes sweep profile" `Quick
          test_sweep_profile;
        Alcotest.test_case "is: empty frontier, all paths" `Quick
          test_is_degenerate;
      ] );
    ("sparse-gate", gate_tests);
  ]

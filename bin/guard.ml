(* scvad_guard driver: non-differentiable dataflow certificates over
   the NPB kernel sources, with a dynamic perturbation-falsifier gate.

   Usage: guard [--format text|json] [--out FILE] [--check]
                [--trials N] [--seed N] [--baseline FILE] [ROOT]

   ROOT is the directory of kernel sources (default: the repo's
   lib/npb, found by walking up to dune-project).  --check runs the
   full gate:

   (a) every variable of every app is classified (no Unknown left
       after pragmas) and every app's analyses resolved;
   (b) witness hunt: for Control_tainted variables, seeded
       perturbations of elements the reverse analysis calls uncritical
       must produce at least one bitwise output divergence somewhere —
       the concrete unsoundness witness the certificate predicts;
   (c) Smooth validation: the same perturbations on Smooth variables
       (pragma-assumed ones included) must produce no witness at all;
   (d) every app's falsifier-hardened masks still pass the
       crash/restart verification harness.

   --baseline compares against a committed certificate JSON and fails
   if any previously-Smooth variable regressed to Control_tainted or
   Unknown without a pragma.  Exit status: 0 clean, 1 on error findings
   or a gate violation, 2 on usage errors. *)

module Driver = Scvad_guard.Driver
module Cert = Scvad_guard.Cert
module Finding = Scvad_lint.Finding
module Analyzer = Scvad_core.Analyzer
module Falsifier = Scvad_core.Falsifier
module Harness = Scvad_core.Harness
module Criticality = Scvad_core.Criticality

let fail_usage msg =
  prerr_endline ("guard: " ^ msg);
  exit 2

(* ------------------------------------------------------------------ *)
(* Gate                                                                *)
(* ------------------------------------------------------------------ *)

(* Gate (a): nothing unresolved, nothing unclassified.  An Unknown
   certificate is an unfinished proof — the fix is either sharpening
   the pass or adding a justified pragma, never shipping "don't know". *)
let check_classified (certs : Cert.certificates) =
  let ok = ref true in
  List.iter
    (fun (a : Cert.app_certs) ->
      if not a.Cert.resolved then begin
        Printf.eprintf "guard: GATE VIOLATION: %s: analysis unresolved\n"
          a.Cert.app;
        ok := false
      end;
      List.iter
        (fun (v : Cert.var_cert) ->
          if v.Cert.class_ = Cert.Unknown then begin
            Printf.eprintf
              "guard: GATE VIOLATION: %s.%s is Unknown (%s)\n" a.Cert.app
              v.Cert.var v.Cert.reason;
            ok := false
          end)
        a.Cert.certs)
    certs;
  !ok

(* Per-app context for the dynamic parts of the gate. *)
type app_ctx = {
  x_certs : Cert.app_certs;
  x_app : (module Scvad_core.App.S);
  x_report : Criticality.report;  (* naive AD verdict *)
}

let contexts (certs : Cert.certificates) =
  let ok = ref true in
  let ctxs =
    List.filter_map
      (fun (a : Cert.app_certs) ->
        match Scvad_npb.Suite.find a.Cert.app with
        | Some app ->
            Some
              { x_certs = a; x_app = app; x_report = Analyzer.run app }
        | None ->
            Printf.eprintf
              "guard: GATE VIOLATION: app %s has no registered benchmark\n"
              a.Cert.app;
            ok := false;
            None)
      certs
  in
  (ctxs, !ok)

let restrict_targets targets vars =
  List.filter (fun t -> List.mem t.Falsifier.t_var vars) targets

(* Gate (b): hunt witnesses on Control_tainted variables at both the
   window ends — boundary 0 (perturb initial state, rerun everything)
   and boundary = niter (perturb final state, recompute the output
   reduction only; IS's bucket ranks live here). *)
let hunt_witnesses ~trials ~seed ctx =
  let (module A : Scvad_core.App.S) = ctx.x_app in
  let tainted = Cert.tainted_vars ctx.x_certs in
  let targets =
    restrict_targets (Falsifier.targets_of_report ctx.x_report) tainted
  in
  if targets = [] then []
  else
    let niter = A.analysis_niter in
    let per_boundary = max 1 (trials / 2) in
    List.concat_map
      (fun boundary ->
        let o =
          Falsifier.run ~boundary ~niter ~trials:per_boundary ~seed ~targets
            ctx.x_app
        in
        if not o.Falsifier.f_stable then
          Printf.eprintf
            "guard: warning: %s: continuation not bitwise stable at boundary \
             %d; witness hunt skipped there\n"
            A.name boundary;
        o.Falsifier.f_witnesses)
      [ 0; niter ]

(* Gate (c): the same perturbations on Smooth variables must never
   diverge.  Smooth floats contribute their uncritical elements; Smooth
   integer variables contribute every element (AD never judged them, so
   the certificate alone claims their irrelevance). *)
let smooth_targets ctx =
  restrict_targets
    (Falsifier.targets_of_report ctx.x_report)
    (Cert.smooth_vars ctx.x_certs)

let validate_smooth ~trials ~seed ctx =
  let (module A : Scvad_core.App.S) = ctx.x_app in
  let targets = smooth_targets ctx in
  if targets = [] || trials = 0 then (0, [])
  else
    let o =
      Falsifier.run ~boundary:0 ~niter:A.analysis_niter ~trials ~seed ~targets
        ctx.x_app
    in
    if not o.Falsifier.f_stable then begin
      Printf.eprintf
        "guard: warning: %s: continuation not bitwise stable; Smooth \
         validation skipped\n"
        A.name;
      (0, [])
    end
    else (o.Falsifier.f_trials, o.Falsifier.f_witnesses)

(* Split [total] Smooth-validation trials across apps, proportional to
   1 / tape_nodes_hint (cheap apps absorb more trials) with a floor so
   every app gets real coverage. *)
let validation_shares ~total ctxs =
  let floor_trials = 24 in
  let weight ctx =
    let (module A : Scvad_core.App.S) = ctx.x_app in
    1.0 /. float_of_int (max 1 A.tape_nodes_hint)
  in
  let wsum = List.fold_left (fun acc c -> acc +. weight c) 0.0 ctxs in
  List.map
    (fun ctx ->
      let share =
        if wsum <= 0.0 then floor_trials
        else
          max floor_trials
            (int_of_float (float_of_int total *. weight ctx /. wsum))
      in
      (ctx, share))
    ctxs

(* Gate (d): the hardened masks must still restart correctly. *)
let check_restart ctx witnesses =
  let (module A : Scvad_core.App.S) = ctx.x_app in
  let hardened = Falsifier.harden ctx.x_report witnesses in
  let r = Harness.verify_report ~report:hardened ctx.x_app in
  if not r.Harness.verified then
    Printf.eprintf
      "guard: GATE VIOLATION: %s: hardened masks failed crash/restart \
       verification (golden %.17g, restarted %.17g)\n"
      A.name r.Harness.golden.Harness.output
      r.Harness.restarted.Harness.output;
  r.Harness.verified

let describe_witness app (w : Falsifier.witness) =
  Printf.sprintf "%s.%s[%d] at boundary %d (delta %g%s)" app w.Falsifier.w_var
    w.Falsifier.w_element w.Falsifier.w_boundary w.Falsifier.w_delta
    (match w.Falsifier.w_fd with
    | Some fd -> Printf.sprintf ", fd %g" fd
    | None -> "")

let run_gate ~trials ~seed (certs : Cert.certificates) =
  let ok = ref (check_classified certs) in
  let ctxs, ctx_ok = contexts certs in
  if not ctx_ok then ok := false;
  (* Witness hunt: a quarter of the budget, split over the apps that
     have Control_tainted variables at all. *)
  let hunters =
    List.filter (fun c -> Cert.tainted_vars c.x_certs <> []) ctxs
  in
  let hunt_share =
    match hunters with [] -> 0 | hs -> max 1 (trials / 4 / List.length hs)
  in
  let witnesses =
    List.concat_map
      (fun ctx ->
        let ws = hunt_witnesses ~trials:hunt_share ~seed ctx in
        let (module A : Scvad_core.App.S) = ctx.x_app in
        List.iter
          (fun w ->
            Printf.printf "guard: witness: %s\n" (describe_witness A.name w))
          (match ws with [] -> [] | w :: _ -> [ w ]);
        List.map (fun w -> (ctx, w)) ws)
      hunters
  in
  if hunters <> [] && witnesses = [] then begin
    prerr_endline
      "guard: GATE VIOLATION: no Control_tainted variable yielded a \
       perturbation witness — the certificates predict at least one";
    ok := false
  end;
  (* Smooth validation: the rest of the budget, over the apps that
     actually expose Smooth candidates. *)
  let validation_total = trials * 3 / 4 in
  let validators = List.filter (fun c -> smooth_targets c <> []) ctxs in
  let smooth_trials = ref 0 in
  List.iter
    (fun (ctx, share) ->
      let t, ws = validate_smooth ~trials:share ~seed ctx in
      smooth_trials := !smooth_trials + t;
      List.iter
        (fun w ->
          let (module A : Scvad_core.App.S) = ctx.x_app in
          Printf.eprintf
            "guard: GATE VIOLATION: Smooth variable falsified: %s\n"
            (describe_witness A.name w);
          ok := false)
        ws)
    (validation_shares ~total:validation_total validators);
  (* Restart verification with hardened masks, all apps. *)
  List.iter
    (fun ctx ->
      let ws =
        List.filter_map
          (fun (c, w) -> if c == ctx then Some w else None)
          witnesses
      in
      if not (check_restart ctx ws) then ok := false)
    ctxs;
  if !ok then
    Printf.printf
      "guard: gate passed: %d app(s); %d witness(es) on control-tainted \
       variables; %d Smooth-validation trial(s), none falsified; hardened \
       masks verified on restart.\n"
      (List.length ctxs) (List.length witnesses) !smooth_trials;
  !ok

(* ------------------------------------------------------------------ *)
(* Baseline regression check                                           *)
(* ------------------------------------------------------------------ *)

(* A variable certified Smooth in the committed baseline must stay
   Smooth; a silent regression to Control_tainted or Unknown means the
   kernel (or the pass) changed in a way that invalidates masks pruned
   under the old certificate. *)
let check_baseline ~baseline (certs : Cert.certificates) =
  let base =
    try Driver.certs_of_json (Scvad_lint.Driver.read_file baseline)
    with e ->
      fail_usage
        (Printf.sprintf "cannot read baseline %s: %s" baseline
           (Printexc.to_string e))
  in
  let ok = ref true in
  List.iter
    (fun (ba : Cert.app_certs) ->
      List.iter
        (fun (bv : Cert.var_cert) ->
          if bv.Cert.class_ = Cert.Smooth then
            match Cert.find certs ~app:ba.Cert.app ~var:bv.Cert.var with
            | None ->
                Printf.eprintf
                  "guard: GATE VIOLATION: %s.%s was Smooth in the baseline \
                   but is gone\n"
                  ba.Cert.app bv.Cert.var;
                ok := false
            | Some cv ->
                if cv.Cert.class_ <> Cert.Smooth then begin
                  Printf.eprintf
                    "guard: GATE VIOLATION: %s.%s regressed from Smooth to \
                     %s without a pragma (%s)\n"
                    ba.Cert.app bv.Cert.var
                    (Cert.class_name cv.Cert.class_)
                    cv.Cert.reason;
                  ok := false
                end)
        ba.Cert.certs)
    base;
  !ok

(* ------------------------------------------------------------------ *)

let () =
  let format = ref "text" in
  let out = ref "" in
  let check = ref false in
  let trials = ref 10_000 in
  let seed = ref 0 in
  let baseline = ref "" in
  let roots = ref [] in
  let spec =
    [
      ( "--format",
        Arg.Symbol ([ "text"; "json" ], fun s -> format := s),
        " report format (default text)" );
      ("--out", Arg.Set_string out, "FILE also write the report to FILE");
      ( "--check",
        Arg.Set check,
        " run the falsifier gate over the certificates" );
      ( "--trials",
        Arg.Set_int trials,
        "N total perturbation trials for --check (default 10000)" );
      ("--seed", Arg.Set_int seed, "N falsifier RNG seed (default 0)");
      ( "--baseline",
        Arg.Set_string baseline,
        "FILE fail if a Smooth certificate in FILE regressed" );
    ]
  in
  let usage =
    "guard [--format text|json] [--out FILE] [--check] [--trials N] [--seed \
     N] [--baseline FILE] [ROOT]"
  in
  Arg.parse spec (fun p -> roots := p :: !roots) usage;
  if !trials < 1 then fail_usage "--trials must be >= 1";
  let root =
    match List.rev !roots with
    | [] -> (
        match Driver.locate_npb_dir () with
        | Some d -> d
        | None -> fail_usage "no ROOT given and no lib/npb found above cwd")
    | [ d ] -> d
    | _ -> fail_usage "at most one ROOT directory"
  in
  if not (Sys.file_exists root && Sys.is_directory root) then
    fail_usage (Printf.sprintf "ROOT %s is not a directory" root);
  let certs, findings = Driver.analyze_dir root in
  let report =
    match !format with
    | "json" -> Driver.render_json certs findings
    | _ -> Driver.render_text certs findings
  in
  print_string report;
  if !out <> "" then begin
    let oc = open_out !out in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc report)
  end;
  let has_errors =
    List.exists
      (fun (f : Finding.t) -> f.Finding.severity = Finding.Error)
      findings
  in
  let baseline_ok =
    if !baseline <> "" then check_baseline ~baseline:!baseline certs else true
  in
  let gate_ok =
    if !check then run_gate ~trials:!trials ~seed:!seed certs else true
  in
  if has_errors || not baseline_ok || not gate_ok then exit 1

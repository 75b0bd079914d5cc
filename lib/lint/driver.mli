(** The lint driver: walk sources, parse with compiler-libs, run the
    rules, apply the allowlists and pragmas, render the report.

    The repo policy lives in {!default_config}:

    - the {b domain-safety} rule applies to the libraries reachable from
      [Pool.map] workloads ([lib/npb], [lib/solvers], [lib/nprand],
      [lib/ad], [lib/ndarray], [lib/core]) — the mechanized form of the
      DESIGN.md §9 "no top-level mutable state" claim;
    - {b domain-spawn-outside-pool} applies everywhere except the pool
      runtime itself ([lib/par]): raw [Domain.spawn]/[Domain.join]
      bypasses the pool's ordering, sanitization and race-certification
      guarantees (DESIGN.md §17);
    - {b unsafe-access} is an error everywhere except the allowlisted
      hot paths, and every allowlist entry carries a justification that
      is printed in the report;
    - {b float-equality} is sanctioned only in [lib/core/criticality.ml]
      (the paper's exact [derivative = 0.0] criterion is the spec
      there); everything else needs a pragma. *)

type config = {
  domain_dirs : string list;
      (** path prefixes where the domain-safety rule applies *)
  pool_dirs : string list;
      (** path prefixes exempt from domain-spawn-outside-pool (the pool
          runtime that legitimately spawns domains) *)
  unsafe_allow : (string * string) list;  (** file, justification *)
  float_allow : (string * string) list;  (** file, justification *)
}

val default_config : config

(** One allowlist entry as reported: how often it was exercised on this
    run ([a_uses = 0] means the entry is currently dormant). *)
type allow_note = {
  a_rule : Finding.rule;
  a_file : string;
  a_justification : string;
  a_uses : int;
}

type result = {
  findings : Finding.t list;  (** sorted by (file, line, rule, message) *)
  suppressed : int;  (** findings silenced by a justified pragma *)
  allow_notes : allow_note list;
}

(** The whole contents of a file. *)
val read_file : string -> string

(** Parse an implementation with compiler-libs; a syntax or lexing
    error becomes a [Syntax] finding at its line. *)
val parse :
  file:string -> string -> (Parsetree.structure, Finding.t) Stdlib.result

(** [lint_paths paths] lints every [.ml] file among [paths]
    (directories are walked recursively; [_*] and dot entries are
    skipped).  Deterministic: files and findings are sorted. *)
val lint_paths : ?config:config -> string list -> result

(** True when the run must fail ([exit 1]): any [Error]-severity
    finding. *)
val has_errors : result -> bool

val render_text : result -> string
val render_json : result -> string

(** Parse the [findings] array out of {!render_json} output — the
    fixture suite asserts this round-trips.  Raises [Failure] on
    malformed input. *)
val findings_of_json : string -> Finding.t list

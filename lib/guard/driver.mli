(** Guard driver: parse NPB kernels, walk them in the activity and
    escape domains, and assemble per-variable {!Cert.var_cert}
    certificates with pragma overlay. *)

(** The outcomes of both walks over one kernel ([None] when a walk
    could not start or ran out of fuel), and the notes of both, in
    order: each walk's own notes, or one line saying it is
    incomplete. *)
type analysis = {
  a_absint : Scvad_activity.Absint.outcome option;
  a_einterp : Einterp.outcome option;
  a_notes : string list;
}

(** Run both walks; the discover pass shares this. *)
val walks : Scvad_activity.Model.t -> analysis

(** [analyze_source ~file source] certifies the app declared in
    [source], or [None] for shared modules; findings carry pragma
    problems and parse errors. *)
val analyze_source :
  file:string ->
  string ->
  Cert.app_certs option * Scvad_lint.Finding.t list

val analyze_file :
  string -> Cert.app_certs option * Scvad_lint.Finding.t list

val analyze_files :
  string list -> Cert.certificates * Scvad_lint.Finding.t list

(** Certify every [.ml] file in [dir], sorted by name. *)
val analyze_dir : string -> Cert.certificates * Scvad_lint.Finding.t list

(** Walk up from [cwd] looking for [lib/npb]. *)
val locate_npb_dir : ?cwd:string -> unit -> string option

val render_text : Cert.certificates -> Scvad_lint.Finding.t list -> string
val render_json : Cert.certificates -> Scvad_lint.Finding.t list -> string

(** Parse a {!render_json} document back (baseline regression gate and
    round-trip tests).  Raises [Failure] on malformed input. *)
val certs_of_json : string -> Cert.certificates

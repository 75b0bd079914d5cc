(** Minimal JSON values — just enough to emit the lint report and parse
    it back (the fixture suite asserts the round-trip).  No third-party
    JSON dependency: the repo policy is stdlib + compiler-libs only. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Compact, deterministic serialization (object fields in the order
    given; strings escaped per RFC 8259). *)
val to_string : t -> string

(** Parse a value.  Numbers are restricted to (optionally signed)
    integers — all the report ever emits.  Raises [Failure] with a
    byte-offset diagnostic on malformed input. *)
val of_string : string -> t

(** Object field lookup; [None] on non-objects and absent keys. *)
val member : string -> t -> t option

(** Required object fields: [jstr where key j] is the string under [key],
    and raises [Failure "<where>: missing string <key>"] when it is
    absent or not a string; likewise for ints, bools and arrays. *)
val jstr : string -> string -> t -> string

val jint : string -> string -> t -> int
val jbool : string -> string -> t -> bool
val jarr : string -> string -> t -> t list

(** Pure-OCaml SHA-256 (FIPS 180-4). Digests are raw 32-byte strings;
    use {!to_hex} for display. Streaming interface for callers hashing
    a concatenation without building it. *)

type ctx

val init : unit -> ctx

val reset : ctx -> unit
(** Return a context to its initial state, so one context can hash
    many messages without allocating. *)

val feed : ctx -> Bytes.t -> unit
val feed_sub : ctx -> Bytes.t -> int -> int -> unit
val feed_string : ctx -> string -> unit

val finish : ctx -> string
(** Finalizes and returns the 32-byte digest. The context must be
    {!reset} before it hashes another message. *)

val digest_bytes : Bytes.t -> string
val digest_string : string -> string

val to_hex : string -> string

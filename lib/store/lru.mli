(** LRU cache with a cost budget, over a key with its own equality and
    hash.

    Entries carry an integer cost (bytes, typically); inserting past
    the budget evicts least-recently-used entries, invoking the
    eviction callback (used by the object cache to checkpoint dirty
    metadata before it leaves memory). Touching an entry allocates
    nothing; only inserting a new key allocates its node. *)

module type KEY = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
  (** Any int; the table mixes it before picking a bucket, so the
      identity is a good hash for addresses and object ids. *)
end

module Make (K : KEY) : sig
  type key = K.t
  type 'v t

  val create : ?on_evict:(key -> 'v -> unit) -> budget:int -> unit -> 'v t
  val budget : 'v t -> int

  val cost : 'v t -> int
  (** Sum of costs of resident entries. *)

  val length : 'v t -> int
  val mem : 'v t -> key -> bool

  val find : 'v t -> key -> 'v option
  (** Touches the entry (moves it to most-recent). *)

  val find_exn : 'v t -> key -> 'v
  (** [find] without the option cell: raises [Not_found] on a miss,
      which counts as one. *)

  val peek : 'v t -> key -> 'v option
  (** No touch. *)

  val insert : 'v t -> key -> 'v -> cost:int -> unit
  (** Adds or replaces; evicts LRU entries until within budget. An
      entry larger than the whole budget is still admitted alone. *)

  val remove : 'v t -> key -> unit
  (** Removes without invoking the eviction callback. *)

  val clear : 'v t -> unit
  (** Drops everything without invoking the eviction callback. *)

  val flush : 'v t -> unit
  (** Invokes the eviction callback on everything, least recent first,
      then drops it. *)

  val hits : 'v t -> int

  val misses : 'v t -> int
  (** [find] result counters. *)

  val iter : 'v t -> (key -> 'v -> unit) -> unit
  (** Most recent first. [f] must not modify the cache. *)
end

(** Landmark versioning on top of the history pool (the paper's
    Section 6: "By combining self-securing storage with long-term
    landmark versioning, recovery from users' accidents could be
    enhanced while also maintaining the benefits of intrusion
    survival").

    The history pool guarantees a bounded window; landmarks preserve
    chosen versions {e beyond} it, without weakening the pool's
    security properties: a landmark is a copy-forward of a specific
    version into a fresh, ordinary object (versioned and audited like
    everything else), indexed under a name.

    A {e mark} is the array-scale counterpart: a named, consistent
    rollback point over every member of a {!Target.t} — the shared
    clock instant of one cross-shard durability barrier, together with
    every member's sealed audit-chain head. Rolling back to a mark
    ({!Recovery.restore_tree} at [m_at]) is consistent across shards
    because the barrier quiesced and flushed all of them at once, and
    {!verify_since} proves no member's history was tampered with since
    the mark was taken. *)

type t

type landmark = {
  l_name : string;
  l_source : int64;  (** object the landmark was taken of *)
  l_taken_at : int64;  (** the version instant preserved *)
  l_object : int64;  (** the archive object holding the copy *)
  l_bytes : int;
}

type mark = {
  m_name : string;
  m_at : int64;  (** shared-clock instant of the cross-shard barrier *)
  m_heads : (int * int * S4_integrity.Chain.head) list;
      (** sealed chain head per (shard, replica) at the barrier *)
}

val create : ?cred:S4.Rpc.credential -> S4.Drive.t -> t
(** Uses (or creates) the drive partition ["landmarks"] as the archive
    index. Default credential: admin.

    @raise Failure with a ["Landmark.create: ..."] diagnostic if the
    partition cannot be mounted or created, or if the partition table
    names a dead index object — no handle with an unusable index is
    ever returned. *)

val of_target : ?cred:S4.Rpc.credential -> Target.t -> t
(** Same, over a drive or a sharded array (the index then lives on the
    array's meta shard, where the partition table is).
    @raise Failure as {!create}. *)

(** The index fails closed: every call that reads it answers [Error]
    naming the index object when that object cannot be read or does
    not decode, and {!take} and {!mark} then write nothing. *)

val take : t -> name:string -> at:int64 -> int64 -> (landmark, string) result
(** [take t ~name ~at oid] preserves [oid]'s version at time [at]
    (contents and attributes) under [name]. Fails if the name is
    already used or the version is no longer in the pool. *)

val list : t -> (landmark list, string) result
(** All landmarks, newest first. *)

val find : t -> string -> (landmark option, string) result

val contents : t -> string -> (Bytes.t, string) result
(** Read a landmark's preserved contents (a normal current read — no
    history access needed, which is the point). *)

val restore_to : t -> string -> int64 -> (int, string) result
(** Copy a landmark's contents forward onto a (live) object; returns
    bytes written. *)

(** {1 Cross-shard marks} *)

val mark : t -> name:string -> (mark, string) result
(** Take a named, consistent rollback point: one
    {!Target.landmark_barrier} over every member (quiesce, pin heads
    into the integrity catalog, seal every chain), then persist the
    barrier instant and the sealed heads in the landmark index. Fails
    if the name is taken or any member's barrier failed. *)

val marks : t -> (mark list, string) result
(** All marks, newest first. *)

val find_mark : t -> string -> (mark option, string) result

val verify_since : t -> mark -> (unit, string list) result
(** Prove every member's audit chain is an untampered extension of the
    head recorded in the mark ([Audit.verify ~from] per member):
    the precondition for trusting a rollback to [m_at]. Errors name
    the offending shard/replica. *)

val pp_mark : Format.formatter -> mark -> unit

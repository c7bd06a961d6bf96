(** Randomized crash-recovery harness.

    The paper's guarantees are only as good as the recovery path, and
    recovery code that is never crashed is assumed-correct, not
    correct. This harness runs a deterministic randomized workload
    against a drive whose disk carries a {!S4_disk.Fault} policy,
    crashes the device at an arbitrary write (every run deterministic
    in its seed and crash point), reattaches, and checks the paper's
    invariants against an independently maintained oracle:

    - {b window survival}: every object state captured at a successful
      sync is still readable with a time-based read at the sync time;
    - {b audit continuity}: the recovered audit trail is a contiguous
      prefix of the requests actually handled (a crash may lose the
      buffered tail, never a middle record);
    - {b replay correctness}: the recovered store passes a full fsck
      and keeps serving new requests;
    - {b mirror convergence}: after a partial resync failure, retrying
      converges the replicas with no divergence ({!resync_run}).

    All randomness flows from explicit seeds; any failure is
    reproducible from its [seed] and [crash_after]. *)

type report = {
  seed : int;
  crash_after : int;  (** crash on this many workload disk writes (0 = none) *)
  crashed : bool;  (** whether the crash point was reached *)
  ops_before_crash : int;  (** RPCs completed before the crash *)
  snapshots : int;  (** synced snapshots checked after recovery *)
  audit_checked : int;  (** recovered audit records matched *)
  violations : string list;  (** empty = all invariants held *)
}

val workload_writes : ?ops:int -> seed:int -> unit -> int
(** Disk writes the seeded workload issues after format when run
    fault-free — the valid crash-point range for {!run}. *)

val run : ?ops:int -> seed:int -> crash_after:int -> unit -> report
(** One crash-recovery cycle: format, run the workload, crash on the
    [crash_after]-th disk write, reattach, verify. [crash_after = 0]
    disables the crash (the workload runs to completion and only the
    in-flight sanity checks apply). *)

val boundary_sweep : ?ops:int -> seed:int -> unit -> report list
(** {!run} once per possible crash point: every disk write boundary of
    the workload, [1 .. workload_writes]. *)

val sweep : ?ops:int -> seed:int -> runs:int -> unit -> report list
(** [runs] crash points drawn uniformly from the workload's write
    range, each with a distinct derived workload seed. *)

val rebalance_run : ?ops:int -> seed:int -> crash_after:int -> unit -> report
(** Sharded-array crash mid-rebalance: run the workload over a 2-shard
    array, add a third drive to the live array, and crash the whole
    array on the new drive's [crash_after]-th disk write during the
    migration. Every drive is then individually reattached and the
    array reassembled with [Router.attach]; verification checks that
    each object has exactly one authoritative holder, that every
    synced in-window version still answers through the routed surface,
    and that the interrupted migrations complete cleanly.
    [audit_checked] is always 0 for array runs. *)

val rebalance_writes : ?ops:int -> seed:int -> unit -> int
(** Disk writes the seeded rebalance issues on the newly added drive
    when run crash-free — the valid crash-point range for
    {!rebalance_run}. *)

val rebalance_sweep : seed:int -> runs:int -> unit -> report list
(** {!rebalance_run} at [runs] crash points drawn uniformly from each
    derived workload's rebalance write range. *)

val kill9_run :
  ?dir:string -> seed:int -> kill_after:int -> midflight:bool -> unit -> report
(** A {e real} crash: format a file-backed store under [dir], fork a
    child that serves it over TCP, run the seeded workload through a
    network client for [kill_after] acked requests (snapshot instants
    taken from the server's clock at each acked Sync), then [kill -9]
    the child and verify the surviving host file with the same oracle
    as {!run}. With [midflight] a 64-write batch is put in flight on a
    second connection just before the kill; it is never acked, so the
    oracle ignores it, and the audit check tolerates its trailing
    records ([crash_after] reports [kill_after]; [crashed] is always
    true). The store file is deleted on a clean report, kept for
    post-mortem otherwise. *)

val kill9_sweep : ?dir:string -> seed:int -> runs:int -> unit -> report list
(** {!kill9_run} at [runs] randomized kill points (8–79 acked ops,
    midflight on a coin flip), each with a distinct derived seed. *)

type resync_report = {
  r_seed : int;
  fail_writes : int;  (** secondary disk writes forced to fail *)
  first_error : bool;  (** whether the first resync attempt failed *)
  attempts : int;  (** resync calls until [Ok] *)
  r_violations : string list;
}

val resync_run : seed:int -> fail_writes:int -> unit -> resync_report
(** Mirror partial-failure scenario: the secondary fails, misses
    mutations, is repaired, and its first [fail_writes] disk writes
    during resync fail permanently. Resync is retried until it
    succeeds; the replicas must then be divergence-free with no
    residual lag — double-applied replay entries show up here. *)

val resync_sweep : seed:int -> runs:int -> unit -> resync_report list

(** {1 Tamper injection}

    The attacker of the paper's threat model: full control of the host,
    and here even of the platter, between two admin verifications. Each
    scenario runs the seeded workload to a sealed chain, injects one
    class of damage into the persisted audit log (recomputing block
    CRCs, as any attacker can), and re-verifies against the previously
    trusted head. *)

type tamper =
  | Rewrite  (** forge a CRC-valid edit of a sealed audit record *)
  | Drop  (** zero a middle audit block *)
  | Reorder  (** relocate a block's claimed position on the chain *)
  | Fork  (** restore a stale image behind a "crash" and regrow
              different history past the trusted head *)

val tamper_name : tamper -> string

val tamper_run : seed:int -> tamper -> bool * string list
(** [(detected, errors)]: whether [verify-log] against the pre-tamper
    trusted head flagged the damage, and what it reported. Every
    tamper class must come back [true]. *)

val tamper_clean : seed:int -> bool * string list
(** Control: the same scenario with no injection must verify clean
    ([false], no errors). *)

val torn_block_run :
  ?dir:string -> seed:int -> unit -> report * S4_integrity.Chain.verify_result
(** Seal-atomicity regression: flush and sync audit records, tear the
    last flushed block (records and seal together) to its first
    sector, leave the device anchor at the last completed barrier, and
    abandon the process — the state a SIGKILL leaves when it lands
    while a barrier's final block reaches the platter. The
    report must be violation-free (lenient recovery reads it as a
    crash) and the strict re-walk must show no chain error and no bad
    record — tail truncation, never tampering. *)

(** {1 PostMark under kill -9} *)

type postmark_report = {
  pm_seed : int;
  pm_completed : bool;  (** PostMark finished all transactions before the kill *)
  pm_checkpoints : int;  (** durability checkpoints captured *)
  pm_acked : int;  (** audit records covered by the newest checkpoint *)
  pm_recovered : int;  (** audit records recovered after the kill *)
  pm_violations : string list;
}

val kill9_postmark_run :
  ?dir:string -> ?transactions:int -> ?checkpoints:int -> seed:int -> unit -> postmark_report
(** Full PostMark (files, subdirectories, create/delete/read/append
    transactions) through the NFS translator and wire protocol against
    a forked server that is then SIGKILLed mid-run. A second
    connection meanwhile checkpoints durability: server instant,
    [Sync], [Read_audit] up to that instant — every record strictly
    below the instant was acked durable by the Sync. Verification
    reattaches the surviving file and asserts {e zero acked-write
    loss}: each checkpoint's records recovered verbatim, fsck clean,
    the hash chain crash-consistent, every surviving name mountable,
    and the drive still serving. *)

val pp_postmark_report : Format.formatter -> postmark_report -> unit

val failed_reports : report list -> report list
(** Reports with at least one violation. *)

val pp_report : Format.formatter -> report -> unit

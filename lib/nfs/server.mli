(** Uniform NFS server handle.

    Benchmarks and examples drive every system under test — the two S4
    configurations and the comparison servers — through this one
    record, so a workload is written once and runs against all four
    experimental setups of the paper. *)

type t = {
  name : string;
  root : Nfs_types.fh;
  handle : Nfs_types.req -> Nfs_types.resp;
  reset_caches : unit -> unit;  (** model a cold client/server cache *)
}

val of_translator : name:string -> Translator.t -> t

val over_net : S4_disk.Net.t -> t -> t
(** Interpose the network: every NFS request/response pays modelled
    wire time (used when the translator lives server-side, Fig. 1b,
    and for the kernel-NFS comparison servers). *)

val over_loopback : S4_util.Simclock.t -> t -> t
(** The Fig. 1a client-side hop: every NFS request first pays the
    loopback path from the application to a user-level translator
    (kernel NFS client, UDP loopback, daemon wakeup), 400 us. *)

val handle_exn : t -> Nfs_types.req -> Nfs_types.resp
(** Raises [Failure] on [R_error]; for tests and workload setup. *)

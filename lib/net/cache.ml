module Rpc = S4.Rpc
module Metrics = S4_obs.Metrics

(* The credential is part of the key: the server ACL-checks per
   (user, admin), so a reply earned by one principal must never be
   replayed to another one sharing the connection. *)
type key =
  | K_data of {
      user : int;
      admin : bool;
      oid : int64;
      at : int64 option;
      off : int;
      len : int;
    }
  | K_attr of { user : int; admin : bool; oid : int64; at : int64 option }

module Lru = S4_store.Lru.Make (struct
  type t = key

  let equal = ( = )
  let hash = Hashtbl.hash
end)

type event =
  | Grant of { key : key; expiry : int64; now : int64 }
  | Hit of { key : key; now : int64 }
  | Invalidate of { oid : int64; now : int64 }
  | Clear of { now : int64 }

type entry = { resp : Rpc.resp; expiry : int64 }

type t = {
  lru : entry Lru.t;
  journal : bool;
  mutable events : event list; (* newest first *)
  mutable observed_now : int64;
  (* Own counters, not the LRU's: a lease-expired entry is found in
     the LRU but NOT served, and must count as a miss. *)
  mutable n_hits : int;
  mutable n_misses : int;
}

let create ?(journal = false) ~budget () =
  {
    lru = Lru.create ~budget ();
    journal;
    events = [];
    observed_now = 0L;
    n_hits = 0;
    n_misses = 0;
  }

let record t e = if t.journal then t.events <- e :: t.events

let observe_now t now = if now > t.observed_now then t.observed_now <- now
let now t = t.observed_now

let key_oid = function K_data { oid; _ } -> oid | K_attr { oid; _ } -> oid

let key_of_req (cred : Rpc.credential) = function
  | Rpc.Read { oid; off; len; at } ->
    Some (K_data { user = cred.Rpc.user; admin = cred.Rpc.admin; oid; at; off; len })
  | Rpc.Get_attr { oid; at } ->
    Some (K_attr { user = cred.Rpc.user; admin = cred.Rpc.admin; oid; at })
  | _ -> None

let find t cred req =
  match key_of_req cred req with
  | None -> None
  | Some key -> (
    match Lru.find t.lru key with
    | None ->
      t.n_misses <- t.n_misses + 1;
      None
    | Some e when e.expiry <= t.observed_now ->
      (* Lease ran out: the server may have let another client change
         what this read observes. Treat as a miss. *)
      Lru.remove t.lru key;
      t.n_misses <- t.n_misses + 1;
      None
    | Some e ->
      record t (Hit { key; now = t.observed_now });
      Metrics.incr "cache/hit";
      t.n_hits <- t.n_hits + 1;
      Some e.resp)

let cacheable_resp = function
  | Rpc.R_error _ -> false
  | _ -> true

let cost_of = function
  | Rpc.R_data b -> 32 + Bytes.length b
  | Rpc.R_attr b -> 32 + Bytes.length b
  | _ -> 32

let store t cred req resp ~lease =
  if lease > t.observed_now && cacheable_resp resp then
    match key_of_req cred req with
    | None -> ()
    | Some key ->
      record t (Grant { key; expiry = lease; now = t.observed_now });
      Lru.insert t.lru key { resp; expiry = lease } ~cost:(cost_of resp)

let invalidate_oid t oid =
  let doomed = ref [] in
  Lru.iter t.lru (fun k _ -> if Int64.equal (key_oid k) oid then doomed := k :: !doomed);
  if !doomed <> [] then begin
    record t (Invalidate { oid; now = t.observed_now });
    List.iter (Lru.remove t.lru) !doomed
  end

let clear t =
  if Lru.length t.lru > 0 then record t (Clear { now = t.observed_now });
  Lru.clear t.lru

let invalidate_req t req =
  match req with
  | Rpc.Delete { oid }
  | Rpc.Write { oid; _ }
  | Rpc.Append { oid; _ }
  | Rpc.Truncate { oid; _ }
  | Rpc.Set_attr { oid; _ }
  | Rpc.Set_acl { oid; _ }
  | Rpc.Flush_object { oid; _ } -> invalidate_oid t oid
  | Rpc.Flush _ | Rpc.Set_window _ ->
    (* History pruning is not per-oid: time-based reads anywhere may
       now answer differently. *)
    clear t
  | _ -> ()

let hits t = t.n_hits
let misses t = t.n_misses
let length t = Lru.length t.lru
let events t = List.rev t.events

let pp_key () = function
  | K_data { user; oid; off; len; _ } ->
    Printf.sprintf "data(u%d,%Ld,%d,%d)" user oid off len
  | K_attr { user; oid; _ } -> Printf.sprintf "attr(u%d,%Ld)" user oid

let check t =
  let grants : (key, int64) Hashtbl.t = Hashtbl.create 64 in
  let rec go = function
    | [] -> Ok ()
    | Grant { key; expiry; _ } :: rest ->
      Hashtbl.replace grants key expiry;
      go rest
    | Invalidate { oid; _ } :: rest ->
      Hashtbl.iter
        (fun k _ -> if Int64.equal (key_oid k) oid then Hashtbl.remove grants k)
        (Hashtbl.copy grants);
      go rest
    | Clear _ :: rest ->
      Hashtbl.reset grants;
      go rest
    | Hit { key; now } :: rest -> (
      match Hashtbl.find_opt grants key with
      | None -> Error (Printf.sprintf "cache hit on %a without a live lease" pp_key key)
      | Some expiry when expiry <= now ->
        Error
          (Printf.sprintf "cache hit on %a at %Ld after lease expiry %Ld" pp_key key now
             expiry)
      | Some _ -> go rest)
  in
  go (events t)

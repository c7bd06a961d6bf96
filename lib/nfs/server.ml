module N = Nfs_types
module Net = S4_disk.Net

type t = {
  name : string;
  root : N.fh;
  handle : N.req -> N.resp;
  reset_caches : unit -> unit;
}

let of_translator ~name tr =
  {
    name;
    root = Translator.root tr;
    handle = Translator.handle tr;
    reset_caches = (fun () -> Translator.invalidate_caches tr);
  }

(* NFSv2-over-UDP framing (UDP/IP/Ethernet) around the exact XDR
   encoding. *)
let framing = 42

let over_net net t =
  {
    t with
    handle =
      (fun req ->
        let resp = t.handle req in
        Net.rpc net
          ~req_bytes:(framing + Xdr.req_wire_bytes req)
          ~resp_bytes:(framing + Xdr.resp_wire_bytes resp);
        resp);
  }

let loopback_us = 400.0

let over_loopback clock t =
  {
    t with
    handle =
      (fun req ->
        S4_util.Simclock.advance clock (S4_util.Simclock.of_us loopback_us);
        t.handle req);
  }

let handle_exn t req =
  match t.handle req with
  | N.R_error e -> failwith (Format.asprintf "%s: %s failed: %a" t.name (N.req_name req) N.pp_error e)
  | resp -> resp

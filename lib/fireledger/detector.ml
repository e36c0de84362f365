type t = {
  config : Config.t;
  strikes : (int, int) Hashtbl.t;
  suspects : (int, unit) Hashtbl.t;
}

(* Consecutive timed-out proposing rounds before suspicion. *)
let threshold = 2

let create config =
  { config; strikes = Hashtbl.create 8; suspects = Hashtbl.create 8 }

let suspected t node =
  t.config.Config.fd_enabled && Hashtbl.mem t.suspects node

let record_timeout t ~proposer =
  if t.config.Config.fd_enabled then begin
    let s =
      (match Hashtbl.find_opt t.strikes proposer with Some s -> s | None -> 0)
      + 1
    in
    Hashtbl.replace t.strikes proposer s;
    if s >= threshold && Hashtbl.length t.suspects < t.config.Config.f then
      Hashtbl.replace t.suspects proposer ()
  end

let record_delivery t ~proposer =
  Hashtbl.remove t.strikes proposer;
  Hashtbl.remove t.suspects proposer

let invalidate t =
  Hashtbl.reset t.strikes;
  Hashtbl.reset t.suspects

let suspect_count t = Hashtbl.length t.suspects

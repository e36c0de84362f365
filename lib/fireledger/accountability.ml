open Fl_chain
open State

(* Record equivocation evidence: two valid headers signed by the same
   proposer for one (round, prev_hash) slot. Deduped by canonical
   digest; the first local sighting is reliably broadcast so every
   correct node converges on the same evidence set even when only a
   subset directly observed the conflict. *)
let note_evidence ?(relay = true) t ev =
  if Types.evidence_valid t.env.Env.registry ev then begin
    let digest = Types.evidence_digest ev in
    if not (Hashtbl.mem t.evidence_log digest) then begin
      Hashtbl.replace t.evidence_log digest ev;
      incr_c t "evidence_collected";
      obs_instant t ~name:"evidence"
        ~round:ev.Types.first.Types.header.Header.round
        ~args:[ ("accused", string_of_int ev.Types.accused) ]
        ();
      t.output.on_evidence ev;
      if relay then begin
        t.evd_tag <- t.evd_tag + 1;
        match t.evd with
        | Some b -> Fl_broadcast.Bracha.broadcast b ~tag:t.evd_tag ev
        | None -> ()
      end
    end
  end

(* Two signed headers claiming the same slot with different content:
   evidence if the signatures check out. [known_valid] skips
   re-verifying a signature that was already checked on arrival. *)
let consider_conflict ?(known_valid = false) t (sha : Types.signed_header)
    (shb : Types.signed_header) =
  let ha = sha.Types.header and hb = shb.Types.header in
  if
    ha.Header.proposer = hb.Header.proposer
    && ha.Header.round = hb.Header.round
    && String.equal ha.Header.prev_hash hb.Header.prev_hash
    && not (Header.equal ha hb)
  then begin
    if not known_valid then begin
      charge_verify t;
      charge_verify t
    end;
    note_evidence t (Types.make_evidence ~accused:ha.Header.proposer sha shb)
  end

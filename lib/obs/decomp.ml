type components = {
  dissemination : Fl_sim.Time.t;
  quorum_wait : Fl_sim.Time.t;
  finality_delay : Fl_sim.Time.t;
  merge_wait : Fl_sim.Time.t;
}

let of_times ~a ~b ~c ~d ~e =
  { dissemination = b - a;
    quorum_wait = c - b;
    finality_delay = d - c;
    merge_wait = e - d }

let total c = c.dissemination + c.quorum_wait + c.finality_delay + c.merge_wait

let names =
  [ "phase_dissemination";
    "phase_quorum_wait";
    "phase_finality_delay";
    "phase_merge_wait" ]

let record recorder c =
  Fl_metrics.Recorder.observe recorder "phase_dissemination" c.dissemination;
  Fl_metrics.Recorder.observe recorder "phase_quorum_wait" c.quorum_wait;
  Fl_metrics.Recorder.observe recorder "phase_finality_delay" c.finality_delay;
  Fl_metrics.Recorder.observe recorder "phase_merge_wait" c.merge_wait

(* Client-side decomposition: what a submitting client experiences on
   top of the block pipeline. Same raw-difference discipline, so
   admission_wait + consensus always telescopes to the client e2e. *)

type client_components = {
  admission_wait : Fl_sim.Time.t;
  consensus : Fl_sim.Time.t;
}

let of_client_times ~submit ~a ~final =
  { admission_wait = a - submit; consensus = final - a }

let client_total c = c.admission_wait + c.consensus

let record_client recorder c =
  Fl_metrics.Recorder.observe recorder "phase_admission_wait" c.admission_wait;
  Fl_metrics.Recorder.observe recorder "client_consensus" c.consensus;
  Fl_metrics.Recorder.observe recorder "latency_client_e2e" (client_total c)

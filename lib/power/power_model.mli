(** Mobile-device power model — the Monsoon Power Monitor substitute.

    §5.2 names the Galaxy S5's levels: "about 300mW for idle state,
    1350mW for waiting signals, 2000mW for data reception, and 2000mW
    to 5000mW for data transmission"; remote-I/O service draws ~2000mW
    on the 802.11ac radio and ~1700mW on 802.11n (Figure 8(b)/(c)). *)

type state =
  | Idle
  | Computing           (** CPU executing locally *)
  | Waiting             (** waiting for the server, radio associated *)
  | Receiving
  | Transmitting
  | Remote_io_service   (** servicing the server's remote I/O requests *)

type t = {
  idle_mw : float;
  computing_mw : float;
  waiting_mw : float;
  receiving_mw : float;
  transmitting_mw : float;
  remote_io_mw : float;
}

val galaxy_s5 : fast_radio:bool -> t
(** The paper's handset; [fast_radio] selects the remote-I/O level
    (2000 mW on 802.11ac, 1700 mW on 802.11n).  A session takes it
    from its link's [fast_radio]. *)

val draw_mw : t -> state -> float
val state_to_string : state -> string

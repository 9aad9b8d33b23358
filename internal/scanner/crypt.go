package scanner

import (
	"time"

	"tlsshortcuts/internal/attacker"
	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/par"
	"tlsshortcuts/internal/tlsclient"
	"tlsshortcuts/internal/wire"
)

// CryptCapture is one domain's recorded probe set for the cryptanalysis
// pass: full-handshake and ticket-resumption conversations (each carrying
// application data), the tickets observed in them, and the FFDH modulus
// the domain serves.
type CryptCapture struct {
	Domain  string
	Convs   []*attacker.Conversation
	Tickets [][]byte
	DHPrime []byte
}

// CryptanalysisCapture runs the tap-recorded capture pass over domains:
// per domain a full handshake offering a ticket (with application data —
// the traffic whose later decryption the attacker measures), a ticket
// resumption (which makes the server reissue: a second sealing under the
// same STEK, so IVs can be compared), and a DHE-forced parameter probe.
// Unlike the daily scans these connections are recorded byte-for-byte
// through an attacker.Tap — the pass plays the paper's passive adversary
// alongside the measurement client.
func (s *Scanner) CryptanalysisCapture(domains []string, appData []byte) []CryptCapture {
	s.ensureArenas()
	out := make([]CryptCapture, len(domains))
	par.ForEach(s.workers(), len(domains), func(w, i int) {
		out[i] = s.captureDomain(s.arenas[w], domains[i], appData)
	})
	return out
}

func (s *Scanner) captureDomain(ar *workerArena, domain string, appData []byte) CryptCapture {
	cc := CryptCapture{Domain: domain}
	conv, hcap, err := s.tapProbe(ar, domain, "crypt|full|1", &tlsclient.Config{
		OfferTicket: true, AppData: appData,
	})
	if err == nil {
		cc.Convs = append(cc.Convs, conv)
		if hcap.TicketIssued {
			cc.Tickets = append(cc.Tickets, append([]byte(nil), hcap.Ticket...))
			conv2, rcap, err2 := s.tapProbe(ar, domain, "crypt|resume|1", &tlsclient.Config{
				Resume: hcap.Session, ResumeViaTicket: true, AppData: appData,
			})
			if err2 == nil {
				cc.Convs = append(cc.Convs, conv2)
				if rcap.TicketIssued {
					cc.Tickets = append(cc.Tickets, append([]byte(nil), rcap.Ticket...))
				}
			}
		}
	}
	// FFDH parameter capture: force the DHE suite and record through the
	// SKE. Domains without DHE answer with an alert and are skipped.
	if conv3, _, err3 := s.tapProbe(ar, domain, "crypt|dhe|1", &tlsclient.Config{
		Suites: []uint16{wire.SuiteDHE}, KexOnly: true,
	}); err3 == nil {
		if rec, perr := attacker.Parse(conv3); perr == nil && len(rec.DHPrime) > 0 {
			cc.DHPrime = rec.DHPrime
		}
	}
	return cc
}

// tapProbe opens one tap-recorded connection on the worker's Line and
// closes it before returning. No retries: the pass is a single
// post-campaign sweep, and a retried probe would be a different recorded
// conversation anyway.
func (s *Scanner) tapProbe(ar *workerArena, domain, label string, cfg *tlsclient.Config) (*attacker.Conversation, *tlsclient.Capture, error) {
	conn, err := s.Dialer.DialProbeStableInto(&ar.line, domain, label)
	if err != nil {
		return nil, nil, err
	}
	defer conn.Close()
	if t := s.timeout(); t > 0 {
		_ = conn.SetDeadline(time.Now().Add(t))
	}
	cfg.ServerName = domain
	cfg.Clock = s.Clock
	cfg.Roots = s.Roots
	cfg.Telemetry = s.client
	if s.Seed != nil {
		cfg.Rand = drbg.NewParts(s.Seed, domain, label)
	}
	tap := attacker.NewTap(conn)
	hcap := &tlsclient.Capture{}
	if err := tlsclient.HandshakeInto(hcap, tap, cfg); err != nil {
		return nil, nil, err
	}
	return tap.Conversation(), hcap, nil
}

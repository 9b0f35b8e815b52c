package wire

import "testing"

func TestErrorCodedRoundTrip(t *testing.T) {
	for _, code := range []byte{ErrCodeGeneric, ErrCodeRetryable, ErrCodeDeadline} {
		payload := EncodeError(code, "txn: deadlock detected")
		if payload[0] != 0x00 {
			t.Fatalf("coded payload must open with NUL, got 0x%02x", payload[0])
		}
		gotCode, gotMsg, err := DecodeError(payload)
		if err != nil || gotCode != code || gotMsg != "txn: deadlock detected" {
			t.Errorf("DecodeError = (0x%02x, %q, %v), want (0x%02x, ...)", gotCode, gotMsg, err, code)
		}
	}
}

// TestErrorLegacyDecode: an Error payload that is not coded — the bare
// text servers of protocol version 1 could send, or anything shorter
// than the NUL and the code — is malformed.
func TestErrorLegacyDecode(t *testing.T) {
	for _, payload := range [][]byte{[]byte("server: something broke"), nil, {0x00}} {
		if code, msg, err := DecodeError(payload); err == nil {
			t.Errorf("DecodeError(%q) = (0x%02x, %q), want an error", payload, code, msg)
		}
	}
}

func TestRetryableCode(t *testing.T) {
	if RetryableCode(ErrCodeGeneric) {
		t.Error("generic must not be retryable")
	}
	if !RetryableCode(ErrCodeRetryable) || !RetryableCode(ErrCodeDeadline) {
		t.Error("retryable/deadline codes must be retryable")
	}
	// An overload shed ran nothing — safe to retry elsewhere or later.
	if !RetryableCode(ErrCodeOverloaded) {
		t.Error("overloaded must be retryable")
	}
	// Bad credentials or a missing grant cannot succeed on retry.
	if RetryableCode(ErrCodeAuth) {
		t.Error("auth must not be retryable")
	}
}

"""Reference provider aging: walk every device on every clock tick.

:class:`~repro.cloud.provider.CloudProvider` only records each interval
on the region timeline and lets a device replay the pending intervals
on first touch.  :class:`EagerCloudProvider` is the synchronous walker
that replaced: ``advance`` calls ``advance_hours`` on every device of
every region straight away.  Devices stay bound to their region's
timeline, which this provider never appends to, so they never have
pending intervals and never reach the bulk idle catch-up.
"""

from __future__ import annotations

from repro.cloud.provider import CloudProvider
from repro.errors import CloudError


class EagerCloudProvider(CloudProvider):
    """A :class:`CloudProvider` that ages every device synchronously."""

    def advance(self, hours: float) -> None:
        if hours < 0.0:
            raise CloudError(f"cannot advance time by {hours} hours")
        if hours == 0.0:
            return
        for region in self.regions():
            ambient_k = region.ambient.at(self.clock_hours)
            for device in region.devices():
                device.advance_hours(hours, ambient_k)
        self.clock_hours += hours

"""The per-packet classes declare `__slots__`.

CPython 3.11 keeps at most 29 instance attributes of a class inline;
past that, every attribute read and write on the object goes through
its dict (`LOAD_ATTR_WITH_HINT`), the slower of the specialised forms.
`TcpSender` holds more than 29, so these classes declare their slots,
and an object with no `__dict__` keeps a new attribute from being added
without being declared.
"""

import random

import pytest

from cclab.cc import LAWS, make_controller
from cclab.engine import EventLoop
from cclab.link import BottleneckLink, LinkConfig
from cclab.runner import _FlowPipe
from cclab.transport import TcpReceiver, TcpSender, TransportConfig


@pytest.mark.parametrize("variant", list(LAWS))
def test_per_packet_objects_have_no_instance_dict(variant):
    loop = EventLoop()
    link = BottleneckLink(loop, LinkConfig(), random.Random(1))
    config = TransportConfig()
    controller = make_controller(variant, 2, 44.0, config.mss)
    sender = TcpSender(loop, 0, config, controller, link)
    for obj in (loop, link, sender, TcpReceiver(), _FlowPipe(), controller):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        with pytest.raises(AttributeError):
            obj.undeclared = 0
